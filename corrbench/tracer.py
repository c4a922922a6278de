"""Per-layer spans and counters, recorded from outside the library.

The tracer replaces public functions on corrcolor's modules with wrappers
that time each call. Callers inside the library look these names up at call
time (module globals or `module.attr`), so the wrappers see every call.
Nothing under `src/` changes, and untraced runs install no wrapper at all.

Spans nest: a layer's self time is its span's duration minus the time of the
spans it directly contains, so the self times of all layers, including the
harness's own `bench` root span, add up to the traced wall time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# Cover caches the driver derives lazily. The traced run computes them as
# their own spans right after a cover is built or loaded; otherwise their
# cost lands in whichever call touches them first.
NIBBLE_CACHES = (
    ("color_neighbors", "covers.neighbors"),
    ("partners", "covers.partners"),
    ("arrays", "covers.arrays"),
)
SOLVER_CACHES = (
    ("color_neighbors", "covers.neighbors"),
    ("partners", "covers.partners"),
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def span(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span charged to `layer`."""
        self._child_s.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            children = self._child_s.pop()
            self.self_s[layer] += dt - children
            if self._child_s:
                self._child_s[-1] += dt

    def force_caches(self, cover, caches) -> None:
        for prop, layer in caches:
            self.span(layer, getattr, cover, prop)

    def wrap(self, module_name: str, attr: str, layer: str, after=None) -> None:
        """Replace module.attr with a timed wrapper; `after(result, args)` counts."""
        module = importlib.import_module(module_name)
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        span = self.span

        def wrapper(*args, **kwargs):
            result = span(layer, orig, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def replace(self, module_name: str, attr: str, layer: str, fn) -> None:
        """Install fn (which receives the original) as a timed stand-in."""
        module = importlib.import_module(module_name)
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        span = self.span

        def wrapper(*args, **kwargs):
            return span(layer, fn, orig, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        count = self.counts

        def on_step(_result, _args):
            count["nibble.step_calls"] += 1

        def on_round(result, _args):
            coloring, attempts = result
            count["nibble.round_calls"] += 1
            count["nibble.round_attempts"] += int(attempts)
            count["nibble.round_successes"] += coloring is not None

        def on_nice(result, _args):
            count["weights.nice_probes"] += 1
            count["weights.nice_passes"] += bool(result.ok)

        def on_mask_counts(_result, args):
            count["kernels.mask_counts_calls"] += 1
            count["kernels.mask_counts_entries"] += int(args[1].size)

        def loaded_cover(result, _args):
            self.force_caches(result, NIBBLE_CACHES)

        def sampled_trial_cover(result, _args):
            self.force_caches(result, SOLVER_CACHES)

        def counted_search(count_colorings, g, cover, *args, **kwargs):
            # solve_report(count=True) runs the same search as count_colorings
            # and also returns the node count.
            if args or set(kwargs) - {"node_budget"}:
                return count_colorings(g, cover, *args, **kwargs)
            from corrcolor.errors import SearchBudgetExceeded
            from corrcolor.solver import solve_report

            count["solver.trials"] += 1
            try:
                out = solve_report(g, cover, count=True, **kwargs)
            except SearchBudgetExceeded as exc:
                count["solver.nodes_total"] += exc.nodes_explored
                raise
            count["solver.nodes_total"] += out.nodes_explored
            return out.count

        self.wrap("corrcolor.cli", "main", "cli")
        self.wrap("corrcolor.cli", "run_nibble", "nibble")
        self.wrap("corrcolor.cli", "graph_from_json_dict", "graphs.from_json")
        self.wrap("corrcolor.cli", "cover_from_json_dict", "covers.from_json",
                  loaded_cover)
        self.wrap("corrcolor.cli", "gen_random_bipartite_regular", "graphs.generate")
        self.wrap("corrcolor.cli", "random_cover", "covers.sample")
        self.wrap("corrcolor.cli", "cover_to_json_dict", "covers.to_json")
        self.wrap("corrcolor.graphs", "gen_random_bipartite_regular", "graphs.generate")
        self.wrap("corrcolor.covers", "random_cover", "covers.sample")
        self.wrap("corrcolor.firstmoment", "run_lb_experiment", "firstmoment")
        self.wrap("corrcolor.firstmoment", "random_cover", "covers.sample",
                  sampled_trial_cover)
        self.replace("corrcolor.firstmoment", "count_colorings", "solver.search",
                     counted_search)
        self.wrap("corrcolor.nibble", "run_nibble", "nibble")
        self.wrap("corrcolor.nibble", "validate_cover", "covers.validate")
        self.wrap("corrcolor.nibble", "is_triangle_free", "graphs.triangle_check")
        self.wrap("corrcolor.nibble", "reduct_step", "nibble.step", on_step)
        self.wrap("corrcolor.nibble", "check_reduct_targets", "nibble.targets")
        self.wrap("corrcolor.nibble", "check_nice", "weights.nice", on_nice)
        self.wrap("corrcolor.nibble", "final_color", "nibble.round", on_round)
        self.wrap("corrcolor.nibble", "extend_coloring", "nibble.extend")
        self.wrap("corrcolor.nibble", "check_coloring", "solver.check")
        self.wrap("corrcolor._kernels", "reduct_core", "kernels.reduct_core")
        self.wrap("corrcolor._kernels", "mask_counts", "kernels.mask_counts",
                  on_mask_counts)


# Layers whose self time is reported as `<layer>_s`; the bare driver layers
# report as `<layer>.self_s`.
SPAN_LAYERS = (
    "graphs.generate",
    "graphs.from_json",
    "graphs.triangle_check",
    "covers.sample",
    "covers.to_json",
    "covers.from_json",
    "covers.neighbors",
    "covers.partners",
    "covers.arrays",
    "covers.validate",
    "nibble.step",
    "nibble.targets",
    "nibble.round",
    "nibble.extend",
    "weights.nice",
    "kernels.reduct_core",
    "kernels.mask_counts",
    "solver.search",
    "solver.check",
)
DRIVER_LAYERS = ("cli", "nibble", "firstmoment", "bench")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, nibble_steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit)."""
    s, c = tracer.self_s, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}_s"] = (s[layer], "s")
    for layer in DRIVER_LAYERS:
        out[f"{layer}.self_s"] = (s[layer], "s")
    out["nibble.step_calls"] = (c["nibble.step_calls"], "count")
    out["nibble.steps"] = (nibble_steps, "count")
    out["nibble.step_yield"] = (_ratio(nibble_steps, c["nibble.step_calls"]), "ratio")
    out["nibble.round_calls"] = (c["nibble.round_calls"], "count")
    out["nibble.round_attempts"] = (c["nibble.round_attempts"], "count")
    out["nibble.round_yield"] = (
        _ratio(c["nibble.round_successes"], c["nibble.round_attempts"]),
        "ratio",
    )
    out["weights.nice_probes"] = (c["weights.nice_probes"], "count")
    out["weights.nice_pass_ratio"] = (
        _ratio(c["weights.nice_passes"], c["weights.nice_probes"]),
        "ratio",
    )
    out["kernels.mask_counts_calls"] = (c["kernels.mask_counts_calls"], "count")
    out["kernels.mask_counts_entries"] = (c["kernels.mask_counts_entries"], "count")
    out["solver.nodes"] = (
        _ratio(c["solver.nodes_total"], c["solver.trials"]),
        "count",
    )
    out["solver.nodes_per_s"] = (
        _ratio(c["solver.nodes_total"], s["solver.search"]),
        "1/s",
    )
    return out
