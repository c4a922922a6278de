"""Command-line entry point: generation, solving, experiments, reports.

Every randomized subcommand takes one --seed; all internal randomness is
derived from it through named streams, so identical invocations produce
byte-identical result JSON. A command's result goes to stdout, or to --out
with a run manifest (command, parameters, input digests, package version,
timestamp) next to it; result documents themselves carry no wall-clock values.
Every document is rendered as bytes and written as it is.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import io
import json
import sys
from collections.abc import Iterable, Iterator
from contextvars import ContextVar
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .coverjson import (
    _vertex_id,
    canonical_cover_pieces,
    cover_from_canonical_json,
    cover_from_json_dict,
)
from .covers import lift_from_lists, random_cover, validate_cover
from .errors import CorrColorError, DomainError, MalformedInputError, is_integer
from .firstmoment import run_lb_experiment
from .graphs import (
    canonical_graph_json,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    gen_random_regular,
    graph_from_json_dict,
    parse_dimacs,
)
from .nibble import paper_params, relaxed_params, run_nibble
from .solver import DEFAULT_NODE_BUDGET, solve_report
from .weights import (
    ReductState,
    Weighting,
    check_nice,
    edge_mass_all,
    moderate_values,
    vertex_mass_all,
)


# The sha256 of each input file, by path, as one `main` call read it.
_input_digests: ContextVar[dict[str, str]] = ContextVar("input_digests")


def _read_bytes(path: str) -> bytes:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc.strerror}") from exc
    _input_digests.get({})[path] = hashlib.sha256(data).hexdigest()
    return data


def _decode(data: bytes, path: str) -> str:
    """The text of a file's bytes, decoded as Path.read_text decodes them."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_text(path: str) -> str:
    return _decode(_read_bytes(path), path)


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
    text = _decode(data, path)
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


def _dump_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _write_bytes(path: str, pieces: Iterable[bytes]) -> None:
    """Write the pieces of a document to `path` as they come."""
    try:
        with open(path, "wb") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise MalformedInputError(f"cannot write {path}: {exc.strerror}") from exc


def _write_output(payload: bytes | Iterable[bytes], args) -> None:
    """A command's result document to stdout, or to --out with its run manifest.

    The document is bytes or, for a cover, the pieces it is rendered in.
    The manifest's input digests are of the bytes the command read, taken
    before --out, which may name one of the inputs, is written.
    """
    pieces = [payload] if isinstance(payload, bytes) else payload
    if not args.out:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(pieces)
        return
    _write_bytes(args.out, pieces)
    manifest = {
        "command": args.command,
        "parameters": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("command", "func") and value is not None
        },
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "input_digests": _input_digests.get({}),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_bytes(args.out + ".manifest.json", [_dump_json(manifest)])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_graph(args) -> bytes:
    if args.kind == "cycle":
        g = gen_cycle(args.n)
    elif args.kind == "complete-bipartite":
        g = gen_complete_bipartite(args.a, args.b)
    elif args.kind == "random-regular":
        g = gen_random_regular(args.n, args.d, args.seed, triangle_free=args.triangle_free)
    else:
        g = gen_random_bipartite_regular(args.n_side, args.d, args.seed)
    return canonical_graph_json(g)


def _cmd_gen_cover(args) -> Iterator[bytes]:
    g = _load_graph(args.graph)
    cover = random_cover(g, args.k, args.seed, mode=args.mode, q=args.q)
    return canonical_cover_pieces(cover)


def _cmd_lift(args) -> Iterator[bytes]:
    g = _load_graph(args.graph)
    lists = _load_json(args.lists)
    if not isinstance(lists, list):
        raise MalformedInputError("lists document must be a JSON array of label arrays")
    return canonical_cover_pieces(lift_from_lists(g, lists))


def _cmd_validate(args) -> bytes:
    g = _load_graph(args.graph)
    problems = validate_cover(g, _load_cover(args.cover))
    return _dump_json({"ok": not problems, "violations": problems})


def _load_valid_cover(args):
    """The --graph and --cover inputs; an invalid cover is a DomainError."""
    g = _load_graph(args.graph)
    cover = _load_cover(args.cover)
    problems = validate_cover(g, cover)
    if problems:
        raise DomainError(f"invalid cover: {problems[0]}")
    return g, cover


def _parse_restrict(doc) -> dict[int, list[int]]:
    """A restriction document {"v": [color ids]} as {v: [ids]}."""
    if not isinstance(doc, dict):
        raise MalformedInputError("restrict document must map vertex -> color ids")
    restrict = {}
    for key, xs in doc.items():
        try:
            v = _vertex_id(key)
        except ValueError:
            raise MalformedInputError(f"restrict key {key!r} is not a vertex id") from None
        if not isinstance(xs, list) or not all(map(is_integer, xs)):
            raise MalformedInputError(
                f"restrict entry for vertex {key} must be an array of color ids"
            )
        restrict[v] = xs
    return restrict


def _cmd_solve(args) -> bytes:
    g, cover = _load_valid_cover(args)
    restrict = _parse_restrict(_load_json(args.restrict)) if args.restrict else None
    outcome = solve_report(
        g, cover, restrict=restrict, count=args.count, node_budget=args.node_budget
    )
    return _dump_json(outcome.to_json_dict())


def _cmd_lb_experiment(args) -> bytes:
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
            _write_bytes(args.witness_out, canonical_cover_pieces(witness))
        else:
            sys.stderr.write("no non-colorable cover found; witness not written\n")
    return _dump_json(report.to_json_dict())


def _cmd_stats(args) -> bytes:
    g, cover = _load_valid_cover(args)
    w = _load_weighting(args.weights, cover.n_colors)
    state = ReductState.initial(g, cover, w)
    p_v, q_v, _, p_uv = state.stats
    pm = moderate_values(w)
    keys = [f"{u},{v}" for u, v in zip(cover.edge_u.tolist(), cover.edge_v.tolist())]
    doc = {
        "p_v": [float(x) for x in p_v],
        "Q_v": [float(x) for x in q_v],
        "p_m_v": [float(x) for x in vertex_mass_all(cover, pm)],
        "p_uv": {key: float(x) for key, x in zip(keys, p_uv)},
        "p_m_uv": {key: float(x) for key, x in zip(keys, edge_mass_all(cover, pm))},
        "nice": check_nice(state).delta,
    }
    return _dump_json(doc)


# The NibbleParams fields that `corrcolor nibble` can override, each by the
# flag of the same name, with their types; an unset flag keeps the preset's.
NIBBLE_OVERRIDES = {
    "ck": float,
    "tol_scale": float,
    "max_steps": int,
    "max_retries_per_step": int,
    "max_final_retries": int,
}


def _cmd_nibble(args) -> bytes:
    g = _load_graph(args.graph)
    cover = _load_cover(args.cover)
    overrides = {
        name: getattr(args, name)
        for name in NIBBLE_OVERRIDES
        if getattr(args, name) is not None
    }
    params = (paper_params if args.preset == "paper" else relaxed_params)(**overrides)
    return _dump_json(run_nibble(g, cover, params, args.seed).to_json_dict())


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are malformed input: `main` reports them
    in one line with exit code 2, as it reports a bad input file."""

    def error(self, message):
        raise MalformedInputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the command line; `main` parses with one per process.

    A flag that several commands take is declared once, in a parent parser
    that each of those commands includes.
    """
    parser = _Parser(
        prog="corrcolor",
        description="Correspondence-coloring toolkit: exact solving, random-cover"
        " experiments, and the randomized nibble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def parent(*parents):
        return _Parser(add_help=False, parents=list(parents))

    out = parent()
    out.add_argument("--out")
    seed = parent()
    seed.add_argument("--seed", type=int, default=0)
    graph = parent()
    graph.add_argument("--graph", required=True)
    cover = parent(graph)
    cover.add_argument("--cover", required=True)
    sampling = parent()
    sampling.add_argument("--k", type=int, required=True)
    sampling.add_argument("--mode", choices=["perfect", "bernoulli"], default="perfect")
    sampling.add_argument("--q", type=float, default=0.5)
    budget = parent()
    budget.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)

    def command(subparsers, name, func, *parents, **kwargs):
        p = subparsers.add_parser(name, parents=[*parents, out], **kwargs)
        p.set_defaults(func=func)
        return p

    gen_graph = sub.add_parser("gen-graph", help="generate a graph document")
    kinds = gen_graph.add_subparsers(dest="kind", required=True)
    for kind, sizes, parents in [
        ("cycle", ["--n"], []),
        ("complete-bipartite", ["--a", "--b"], []),
        ("random-regular", ["--n", "--d"], [seed]),
        ("random-bipartite-regular", ["--n-side", "--d"], [seed]),
    ]:
        p = command(kinds, kind, _cmd_gen_graph, *parents)
        for flag in sizes:
            p.add_argument(flag, type=int, required=True)
    kinds.choices["random-regular"].add_argument("--triangle-free", action="store_true")

    command(sub, "gen-cover", _cmd_gen_cover, graph, sampling, seed,
            help="random cover over a graph")
    p = command(sub, "lift", _cmd_lift, graph, help="cover from a list assignment")
    p.add_argument("--lists", required=True)
    command(sub, "validate", _cmd_validate, cover, help="check the cover conditions")
    p = command(sub, "solve", _cmd_solve, cover, budget,
                help="decide or count colorings exactly")
    p.add_argument("--count", action="store_true")
    p.add_argument("--restrict")
    p = command(sub, "lb-experiment", _cmd_lb_experiment, graph, sampling, seed, budget,
                help="random-cover lower-bound experiment")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--witness-out")
    p = command(sub, "stats", _cmd_stats, cover,
                help="masses, entropy, and niceness of a weighting")
    p.add_argument("--weights", required=True)
    p = command(sub, "nibble", _cmd_nibble, cover, seed,
                help="randomized nibble coloring run")
    p.add_argument("--preset", choices=["paper", "relaxed"], default="relaxed")
    for name, kind in NIBBLE_OVERRIDES.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    return parser


# Parsing leaves the parser as it was, so every `main` call shares this one.
_parser = cache(build_parser)


def main(argv=None) -> int:
    token = _input_digests.set({})
    try:
        args = _parser().parse_args(argv)
        _write_output(args.func(args), args)
        return 0
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
    finally:
        _input_digests.reset(token)


if __name__ == "__main__":
    sys.exit(main())
