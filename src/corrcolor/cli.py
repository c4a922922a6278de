"""Command-line entry point: generation, solving, experiments, reports.

Every randomized subcommand takes one --seed; all internal randomness is
derived from it through named streams, so identical invocations produce
byte-identical result JSON. When --out is given, a run manifest (command,
parameters, input digests, package version, timestamp) is written next to
the output; result documents themselves carry no wall-clock values.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .coverjson import (
    canonical_cover_json,
    cover_from_canonical_json,
    cover_from_json_dict,
)
from .covers import lift_from_lists, random_cover, validate_cover
from .errors import CorrColorError, DomainError, MalformedInputError
from .firstmoment import run_lb_experiment
from .graphs import (
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    gen_random_regular,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_dimacs,
)
from .nibble import CSV_HEADER, paper_params, relaxed_params, run_nibble
from .solver import solve_report
from .weights import (
    ReductState,
    Weighting,
    check_nice,
    edge_mass_all,
    entropy_terms,
    moderate_values,
    vertex_mass_all,
)


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc.strerror}") from exc


def _decode(data: bytes) -> str:
    """The text of a file's bytes, decoded as Path.read_text decodes them."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _read_text(path: str) -> str:
    return _decode(_read_bytes(path))


def _parse_json(text: str, path: str):
    # A decoded document holds no reference cycles, but its many small lists
    # would set off full collections while it is built.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc
    finally:
        if was_enabled:
            gc.enable()


def _load_json(path: str):
    return _parse_json(_read_text(path), path)


def _load_graph(path: str):
    """Graph from JSON, or from a DIMACS-like edge list (read-only format)."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return graph_from_json_dict(_parse_json(text, path))
    return parse_dimacs(text)


def _load_cover(path: str):
    """The cover of a JSON file: its canonical layout is read on the arrays,
    and any other document through json.loads, with the same result."""
    data = _read_bytes(path)
    cover = cover_from_canonical_json(data)
    if cover is not None:
        return cover
    # Each stage is freed once the next is built, as `_load_json` frees them.
    text = _decode(data)
    del data
    doc = _parse_json(text, path)
    del text
    return cover_from_json_dict(doc)


def _is_number(x) -> bool:
    """A JSON number within the float range; booleans are not numbers."""
    return type(x) is float or (type(x) is int and abs(x) <= sys.float_info.max)


def _load_weighting(path: str, n_colors: int) -> Weighting:
    doc = _load_json(path)
    if not isinstance(doc, dict) or "p" not in doc or "p_hat" not in doc:
        raise MalformedInputError('weights document needs keys "p" and "p_hat"')
    p, p_hat = doc["p"], doc["p_hat"]
    if not isinstance(p, list) or not all(map(_is_number, p)):
        raise MalformedInputError('weights key "p" must be an array of numbers')
    if not _is_number(p_hat):
        raise MalformedInputError('weights key "p_hat" must be a number')
    if len(p) != n_colors:
        raise MalformedInputError(
            f"weights length {len(p)} disagrees with the cover's {n_colors} colors"
        )
    try:
        return Weighting(p=np.array(p, dtype=np.float64), p_hat=float(p_hat))
    except DomainError as exc:
        raise MalformedInputError(str(exc)) from exc


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_result(doc, args, input_paths: list[str]) -> None:
    _write_payload(_dump_json(doc), args, input_paths)


def _write_payload(payload: str, args, input_paths: list[str]) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(payload, encoding="utf-8")
        manifest = {
            "command": args.command,
            "parameters": {
                key: value
                for key, value in sorted(vars(args).items())
                if key not in ("command", "func") and value is not None
            },
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "input_digests": {p: _digest(p) for p in input_paths},
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        Path(str(out) + ".manifest.json").write_text(
            _dump_json(manifest), encoding="utf-8"
        )
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_graph(args) -> int:
    if args.kind == "cycle":
        g = gen_cycle(args.n)
    elif args.kind == "complete-bipartite":
        g = gen_complete_bipartite(args.a, args.b)
    elif args.kind == "random-regular":
        g = gen_random_regular(args.n, args.d, args.seed, triangle_free=args.triangle_free)
    else:
        g = gen_random_bipartite_regular(args.n_side, args.d, args.seed)
    _write_result(graph_to_json_dict(g), args, [])
    return 0


def _cmd_gen_cover(args) -> int:
    g = _load_graph(args.graph)
    cover = random_cover(g, args.k, args.seed, mode=args.mode, q=args.q)
    _write_payload(canonical_cover_json(cover), args, [args.graph])
    return 0


def _cmd_lift(args) -> int:
    g = _load_graph(args.graph)
    lists = _load_json(args.lists)
    if not isinstance(lists, list):
        raise MalformedInputError("lists document must be a JSON array of label arrays")
    cover = lift_from_lists(g, lists)
    _write_payload(canonical_cover_json(cover), args, [args.graph, args.lists])
    return 0


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    cover = _load_cover(args.cover)
    problems = validate_cover(g, cover)
    _write_result(
        {"ok": not problems, "violations": problems}, args, [args.graph, args.cover]
    )
    return 0


def _parse_restrict(doc) -> dict[int, list[int]]:
    """A restriction document {"v": [color ids]} as {v: [ids]}."""
    if not isinstance(doc, dict):
        raise MalformedInputError("restrict document must map vertex -> color ids")
    restrict = {}
    for key, xs in doc.items():
        try:
            v = int(key)
        except ValueError:
            raise MalformedInputError(f"restrict key {key!r} is not a vertex id") from None
        if not isinstance(xs, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in xs
        ):
            raise MalformedInputError(
                f"restrict entry for vertex {key} must be an array of color ids"
            )
        restrict[v] = xs
    return restrict


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    cover = _load_cover(args.cover)
    problems = validate_cover(g, cover)
    if problems:
        raise MalformedInputError(f"invalid cover: {problems[0]}")
    restrict = None
    inputs = [args.graph, args.cover]
    if args.restrict:
        doc = _load_json(args.restrict)
        restrict = _parse_restrict(doc)
        inputs.append(args.restrict)
    outcome = solve_report(
        g, cover, restrict=restrict, count=args.count, node_budget=args.node_budget
    )
    _write_result(outcome.to_json_dict(), args, inputs)
    return 0


def _cmd_lb_experiment(args) -> int:
    g = _load_graph(args.graph)
    report, witness = run_lb_experiment(
        g,
        args.k,
        args.trials,
        args.seed,
        mode=args.mode,
        q=args.q,
        node_budget=args.node_budget,
    )
    if args.witness_out:
        if witness is not None:
            Path(args.witness_out).write_text(
                canonical_cover_json(witness), encoding="utf-8"
            )
        else:
            sys.stderr.write("no non-colorable cover found; witness not written\n")
    if args.trials_csv:
        lines = ["trial,count"]
        for i, c in enumerate(report.per_trial_counts):
            lines.append(f"{i},{'' if c is None else c}")
        Path(args.trials_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_result(report.to_json_dict(), args, [args.graph])
    return 0


def _cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    cover = _load_cover(args.cover)
    problems = validate_cover(g, cover)
    if problems:
        raise DomainError(f"invalid cover: {problems[0]}")
    w = _load_weighting(args.weights, cover.n_colors)
    state = ReductState.initial(g, cover, w)
    pm = moderate_values(w)
    keys = [f"{u},{v}" for u, v in zip(cover.edge_u.tolist(), cover.edge_v.tolist())]
    nice = check_nice(state)
    doc = {
        "p_v": [float(x) for x in vertex_mass_all(cover, w.p)],
        "Q_v": [float(x) for x in vertex_mass_all(cover, entropy_terms(w.p))],
        "p_m_v": [float(x) for x in vertex_mass_all(cover, pm)],
        "p_uv": {key: float(x) for key, x in zip(keys, edge_mass_all(cover, w.p))},
        "p_m_uv": {key: float(x) for key, x in zip(keys, edge_mass_all(cover, pm))},
        "nice": nice.delta,
    }
    _write_result(doc, args, [args.graph, args.cover, args.weights])
    return 0


def _cmd_nibble(args) -> int:
    g = _load_graph(args.graph)
    cover = _load_cover(args.cover)
    # Each flag overrides the NibbleParams field of the same name.
    names = ("ck", "tol_scale", "max_steps", "max_retries_per_step", "max_final_retries")
    overrides = {n: getattr(args, n) for n in names if getattr(args, n) is not None}
    params = (paper_params if args.preset == "paper" else relaxed_params)(**overrides)
    result = run_nibble(g, cover, params, args.seed)
    if args.trace:
        lines = [CSV_HEADER]
        for row in result.trajectory:
            lines.append(",".join(map(repr, row.to_json_dict().values())))
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_result(result.to_json_dict(), args, [args.graph, args.cover])
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcolor",
        description="Correspondence-coloring toolkit: exact solving, random-cover"
        " experiments, and the randomized nibble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a graph document")
    kinds = p.add_subparsers(dest="kind", required=True)
    k_cycle = kinds.add_parser("cycle")
    k_cycle.add_argument("--n", type=int, required=True)
    k_cb = kinds.add_parser("complete-bipartite")
    k_cb.add_argument("--a", type=int, required=True)
    k_cb.add_argument("--b", type=int, required=True)
    k_rr = kinds.add_parser("random-regular")
    k_rr.add_argument("--n", type=int, required=True)
    k_rr.add_argument("--d", type=int, required=True)
    k_rr.add_argument("--seed", type=int, default=0)
    k_rr.add_argument("--triangle-free", action="store_true")
    k_rb = kinds.add_parser("random-bipartite-regular")
    k_rb.add_argument("--n-side", type=int, required=True)
    k_rb.add_argument("--d", type=int, required=True)
    k_rb.add_argument("--seed", type=int, default=0)
    for sp in (k_cycle, k_cb, k_rr, k_rb):
        sp.add_argument("--out")
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("gen-cover", help="random cover over a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["perfect", "bernoulli"], default="perfect")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_cover)

    p = sub.add_parser("lift", help="cover from a list assignment")
    p.add_argument("--graph", required=True)
    p.add_argument("--lists", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("validate", help="check the cover conditions")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="decide or count colorings exactly")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--restrict")
    p.add_argument("--node-budget", type=int, default=10**8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lb-experiment", help="random-cover lower-bound experiment")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["perfect", "bernoulli"], default="perfect")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--node-budget", type=int, default=10**8)
    p.add_argument("--witness-out")
    p.add_argument("--trials-csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lb_experiment)

    p = sub.add_parser("stats", help="masses, entropy, and niceness of a weighting")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("nibble", help="randomized nibble coloring run")
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--preset", choices=["paper", "relaxed"], default="relaxed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ck", type=float)
    p.add_argument("--tol-scale", type=float)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--max-retries-per-step", type=int)
    p.add_argument("--max-final-retries", type=int)
    p.add_argument("--trace")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nibble)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CorrColorError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        # A fault of the program, not of the input: one line, its own code.
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
