"""The three seeded workloads: inputs, the timed body of one item, and checks.

A workload's set-up makes a fixed list of items from the workload seed and
returns the seconds each instance took to generate. One pass runs every item
once; the harness repeats whole passes, so each item is run equally often.
An item's result must be byte-identical on every pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from time import perf_counter

import corrcolor.cli
import corrcolor.covers
import corrcolor.firstmoment
import corrcolor.graphs
import corrcolor.nibble

from tracer import NIBBLE_CACHES
from verify import CheckFailed, ColoringVerifier, check_lb_report


def child_seed(seed: int, *labels) -> int:
    """A 63-bit seed for one input, derived here so library changes cannot move it."""
    data = repr((int(seed),) + labels).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big") >> 1


def dump(doc) -> bytes:
    """A result document, formatted as `corrcolor ... --out` writes it."""
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@dataclasses.dataclass
class Checked:
    """What the harness keeps from one item after the checks."""

    digest: str
    statuses: list[str]  # one per unit: "ok" or why the unit failed
    steps: int = 0  # committed nibble steps
    detail: dict = dataclasses.field(default_factory=dict)


class NibbleLarge:
    name = "nibble-large"
    why = (
        "one large instance colored under several nibble seeds by CLI calls on"
        " JSON files: heavy-tailed rounding, cover load and derivation, and CLI"
        " I/O; the solver is absent"
    )
    n_side, degree, k = 120, 30, 60
    items = 20
    units_per_item = 1
    setup_reps = 3

    def setup(self, seed: int, workdir: Path):
        graph_path, cover_path = str(workdir / "graph.json"), str(workdir / "cover.json")
        cli = corrcolor.cli
        t0 = perf_counter()
        code = cli.main([
            "gen-graph", "random-bipartite-regular", "--n-side", str(self.n_side),
            "--d", str(self.degree), "--seed", str(child_seed(seed, "graph")),
            "--out", graph_path,
        ])
        code = code or cli.main([
            "gen-cover", "--graph", graph_path, "--k", str(self.k),
            "--seed", str(child_seed(seed, "cover")), "--out", cover_path,
        ])
        if code != 0:
            raise RuntimeError(f"input generation exited with {code}")
        return [perf_counter() - t0], {
            "graph": graph_path,
            "cover": cover_path,
            "seeds": [child_seed(seed, "nibble", i) for i in range(self.items)],
            "out": [str(workdir / f"result-{i}.json") for i in range(self.items)],
        }

    def run(self, inputs, i: int, tracer=None):
        return corrcolor.cli.main([
            "nibble", "--graph", inputs["graph"], "--cover", inputs["cover"],
            "--preset", "relaxed", "--seed", str(inputs["seeds"][i]),
            "--out", inputs["out"][i],
        ])

    def check(self, inputs, i: int, code) -> Checked:
        if code != 0:
            return Checked(digest="", statuses=[f"exit-{code}"])
        payload = Path(inputs["out"][i]).read_bytes()
        doc = json.loads(payload)
        checked = Checked(
            digest=hashlib.sha256(payload).hexdigest(),
            statuses=[doc["status"] if doc["status"] != "success" else "ok"],
            steps=int(doc["steps"]),
            detail={"seed": inputs["seeds"][i], "final_attempts": doc["final_attempts"]},
        )
        if doc["status"] == "success":
            if "verifier" not in inputs:
                cover = json.loads(Path(inputs["cover"]).read_text(encoding="utf-8"))
                inputs["verifier"] = ColoringVerifier(cover["lists"], cover["matchings"])
            inputs["verifier"].check(doc["coloring"])
        return checked


class NibbleBatch:
    name = "nibble-batch"
    why = (
        "many README-scale instances, each with its own graph, cover and seed and"
        " cold cover caches, so per-instance fixed costs dominate; rounding takes"
        " a handful of attempts"
    )
    n_side, degree, k = 100, 12, 30
    items = 48
    units_per_item = 1
    setup_reps = 1

    def setup(self, seed: int, workdir: Path):
        times, instances = [], []
        for i in range(self.items):
            t0 = perf_counter()
            g = corrcolor.graphs.gen_random_bipartite_regular(
                self.n_side, self.degree, seed=child_seed(seed, "graph", i)
            )
            cover = corrcolor.covers.random_cover(g, self.k, seed=child_seed(seed, "cover", i))
            times.append(perf_counter() - t0)
            instances.append((g, cover, child_seed(seed, "nibble", i)))
        return times, instances

    def run(self, inputs, i: int, tracer=None):
        g, cover, seed = inputs[i]
        # Fresh objects start with empty derived caches, as a new instance does.
        g, cover = dataclasses.replace(g), dataclasses.replace(cover)
        if tracer is not None:
            tracer.force_caches(cover, NIBBLE_CACHES)
        return corrcolor.nibble.run_nibble(g, cover, corrcolor.nibble.relaxed_params(), seed)

    def check(self, inputs, i: int, result) -> Checked:
        doc = result.to_json_dict()
        checked = Checked(
            digest=hashlib.sha256(dump(doc)).hexdigest(),
            statuses=["ok" if result.status == "success" else result.status],
            steps=int(result.steps),
            detail={"seed": inputs[i][2], "final_attempts": result.final_attempts},
        )
        if result.status == "success":
            cover = inputs[i][1]
            ColoringVerifier(cover.lists, cover.matchings).check(result.coloring)
        return checked


class LowerBound:
    name = "lb"
    why = (
        "only the exact solver works: every sampled cover must be refuted by"
        " search, with cover sampling under 1%; the nibble and kernels are absent"
    )
    n_side, degree, k = 36, 12, 4
    trials = 1
    node_budget = 10**6
    items = 40
    units_per_item = trials
    setup_reps = 1

    def setup(self, seed: int, workdir: Path):
        times, graphs = [], []
        for i in range(self.items):
            t0 = perf_counter()
            g = corrcolor.graphs.gen_random_bipartite_regular(
                self.n_side, self.degree, seed=child_seed(seed, "graph", i)
            )
            times.append(perf_counter() - t0)
            graphs.append((g, child_seed(seed, "lb", i)))
        return times, graphs

    def run(self, inputs, i: int, tracer=None):
        g, seed = inputs[i]
        return corrcolor.firstmoment.run_lb_experiment(
            dataclasses.replace(g), self.k, self.trials, seed,
            node_budget=self.node_budget,
        )

    def check(self, inputs, i: int, result) -> Checked:
        report, witness = result
        doc = report.to_json_dict()
        counts = list(report.per_trial_counts)
        statuses = [
            "SearchBudgetExceeded" if c is None else "ok" if c == 0 else "colorable"
            for c in counts
        ]
        checked = Checked(
            digest=hashlib.sha256(dump(doc)).hexdigest(),
            statuses=statuses,
            detail={"seed": inputs[i][1], "per_trial_counts": counts},
        )
        g = inputs[i][0]
        check_lb_report(doc, g.n, g.m, self.k, self.trials)
        if "colorable" in statuses:
            raise CheckFailed(f"per-trial counts {counts} are not all 0")
        if witness is None:
            raise CheckFailed("no witness cover returned")
        return checked


WORKLOADS = {wl.name: wl for wl in (NibbleLarge(), NibbleBatch(), LowerBound())}
