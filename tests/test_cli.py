import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import corrcolor
from corrcolor import (
    InternalConsistencyError,
    NibbleParams,
    cover_from_json_dict,
    cover_to_json_dict,
    gen_cycle,
    graph_from_json_dict,
    random_cover,
    solve_exact,
)
from corrcolor.cli import NIBBLE_OVERRIDES, build_parser, main

from .conftest import fsum_by_color


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def c6_files(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    cpath = str(tmp_path / "c.json")
    assert main(["gen-graph", "cycle", "--n", "6", "--out", gpath]) == 0
    assert main(
        ["gen-cover", "--graph", gpath, "--k", "3", "--seed", "5", "--out", cpath]
    ) == 0
    capsys.readouterr()
    return gpath, cpath


class TestGenerate:
    def test_gen_graph_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen-graph", "cycle", "--n", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 6 and len(doc["edges"]) == 6
        assert graph_from_json_dict(doc) == gen_cycle(6)

    @pytest.mark.parametrize("flags", [[], ["--triangle-free"]], ids=["plain", "tf"])
    def test_gen_random_regular(self, capsys, flags):
        code, out, _ = run_cli(
            capsys, "gen-graph", "random-regular", "--n", "10", "--d", "3",
            "--seed", "2", *flags,
        )
        assert code == 0
        g = graph_from_json_dict(json.loads(out))
        assert g.n == 10 and g.m == 15
        assert g == corrcolor.gen_random_regular(10, 3, 2, triangle_free=bool(flags))
        if flags:
            assert corrcolor.is_triangle_free(g)

    def test_gen_random_regular_impossible_is_exit_1(self, capsys):
        code, out, err = run_cli(
            capsys, "gen-graph", "random-regular", "--n", "5", "--d", "4",
            "--triangle-free",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_manifest_written(self, tmp_path, capsys, c6_files):
        gpath, cpath = c6_files
        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert manifest["command"] == "gen-cover"
        assert manifest["seed"] == 5
        assert gpath in manifest["input_digests"]
        assert "timestamp" in manifest

    @pytest.mark.parametrize("command", ["lift", "validate", "solve", "stats", "nibble"])
    def test_manifest_digests_input_flags(self, tmp_path, capsys, c6_files, command):
        gpath, cpath = c6_files
        lpath = write(tmp_path, "l.json", [[1, 2]] * 6)
        rpath = write(tmp_path, "r.json", {})
        wpath = write(tmp_path, "w.json", {"p_hat": 0.5, "p": [0.1] * 18})
        inputs = {
            "lift": ["--graph", gpath, "--lists", lpath],
            "validate": ["--graph", gpath, "--cover", cpath],
            "solve": ["--graph", gpath, "--cover", cpath, "--restrict", rpath],
            "stats": ["--graph", gpath, "--cover", cpath, "--weights", wpath],
            "nibble": ["--graph", gpath, "--cover", cpath],
        }[command]
        out = tmp_path / "out.json"
        assert main([command, *inputs, "--out", str(out)]) == 0
        digests = json.loads(Path(f"{out}.manifest.json").read_text())["input_digests"]
        assert digests == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in inputs[1::2]
        }

    def test_manifest_digests_the_input_that_out_replaces(self, tmp_path, c6_files):
        gpath, cpath = c6_files
        cover_digest = hashlib.sha256(Path(cpath).read_bytes()).hexdigest()
        assert main(["validate", "--graph", gpath, "--cover", cpath, "--out", cpath]) == 0
        assert json.loads(Path(cpath).read_text())["ok"] is True
        digests = json.loads(Path(f"{cpath}.manifest.json").read_text())["input_digests"]
        assert digests[cpath] == cover_digest

    def test_gen_cover_matches_library(self, capsys, c6_files):
        gpath, cpath = c6_files
        doc = json.loads(open(cpath).read())
        assert cover_from_json_dict(doc) == random_cover(gen_cycle(6), 3, seed=5)


def nibble_digest(result) -> str:
    payload = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(payload.encode()).hexdigest()


class TestByteIdentity:
    """Outputs pinned to digests recorded before covers became arrays; the
    lower-bound report without q, node_budget and the per-trial counts is
    pinned from before its tallies were derived from those counts. The two
    bernoulli-mode outputs (the third gen-cover case and the lower-bound
    run) are pinned from when `random_cover` began drawing its whole keep
    table after all of its permutations; perfect covers kept their stream.
    The nibble runs that round are pinned from when the final rounding
    became Moser-Tardos (one color per live vertex, bad edges redrawn) and
    niceness dropped its weight condition; the not-nice and step-exhausted
    runs never round and kept their digests. The drained and
    round-exhausted exits moved to instances that still reach them under
    that rounding. The gen-graph outputs are pinned from before graph
    documents were rendered to bytes in chunks; the last one crosses a
    chunk boundary. Every output built on a random bipartite regular graph
    is pinned from when that generator became d permutations plus switch
    repair; the adaptive round- and step-exhausted exits and the
    many-attempt run moved to graph seeds that still reach what they pin."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["cycle", "--n", "7"],
                "9cabb6a367f3d43ec2082c60734813e09c5a858ca470db19f2493f4982ecc3f6",
            ),
            (
                ["complete-bipartite", "--a", "3", "--b", "4"],
                "ee1e6353d1a8ed5c872b938af57bac2b3a1f30a0f0b788d3d20c0f0dd9f19da6",
            ),
            (
                ["random-regular", "--n", "12", "--d", "3", "--seed", "2",
                 "--triangle-free"],
                "066f9828ccde1fb9b8859ed3bc980f8049df1419349f67b6e33797873e71f27b",
            ),
            (
                ["random-bipartite-regular", "--n-side", "180", "--d", "6",
                 "--seed", "4"],
                "65bba31d673e71622ff7b04b903590cacffdfbb8f8a5158d7b6f1d7b8d00960a",
            ),
        ],
        ids=[
            "cycle", "complete-bipartite", "random-regular", "random-bipartite-regular"
        ],
    )
    def test_gen_graph_digest(self, tmp_path, capsys, argv, digest):
        path = tmp_path / "g.json"
        assert main(["gen-graph", *argv, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert main(["gen-graph", *argv]) == 0
        assert capsys.readouterr().out.encode() == path.read_bytes()

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--seed", "1"],
                "67d7011ee86aeab6dfa832b36ebf53cad33c862e26f411e6f944b0b51225dd70",
            ),
            (
                ["--seed", "2"],
                "a6a7bc18dbd7b72e0c6272cb64bb26bf122ac76db6f096a62f9d5ae13be2b931",
            ),
            (
                ["--seed", "3", "--mode", "bernoulli", "--q", "0.4"],
                "11510a7a36353e5b114a02ce8e0530c39766456f4d422fd4057bca8f3503d9b4",
            ),
        ],
        ids=["seed-1", "seed-2", "bernoulli"],
    )
    def test_gen_cover_digest(self, tmp_path, capsys, flags, digest):
        gpath, cpath = str(tmp_path / "g.json"), str(tmp_path / "c.json")
        assert main([
            "gen-graph", "random-bipartite-regular", "--n-side", "8", "--d", "3",
            "--seed", "4", "--out", gpath,
        ]) == 0
        argv = ["gen-cover", "--graph", gpath, "--k", "5", *flags, "--out", cpath]
        assert main(argv) == 0
        assert hashlib.sha256(Path(cpath).read_bytes()).hexdigest() == digest

    def test_gen_cover_writes_every_piece(self, tmp_path, capsys):
        # 1080 matching keys: the head and two runs of keys are written as
        # they are rendered, to the file and to stdout
        g = corrcolor.gen_random_bipartite_regular(180, 6, seed=4)
        gpath, cpath = tmp_path / "g.json", str(tmp_path / "c.json")
        gpath.write_bytes(corrcolor.canonical_graph_json(g))
        argv = ["gen-cover", "--graph", str(gpath), "--k", "3", "--seed", "1"]
        want = corrcolor.canonical_cover_json(random_cover(g, 3, seed=1))
        assert main([*argv, "--out", cpath]) == 0
        assert Path(cpath).read_bytes() == want
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == want

    def test_readme_nibble_digest(self):
        g = corrcolor.gen_random_bipartite_regular(100, 12, seed=7)
        cover = random_cover(g, 30, seed=8)
        result = corrcolor.run_nibble(g, cover, corrcolor.relaxed_params(), seed=9)
        assert (result.status, result.steps) == ("success", 5)
        assert nibble_digest(result) == (
            "9fa31735591a26ced77e7a1dc7697f5780f78a1362f395e292af004e096e83d7"
        )

    def test_many_attempt_nibble_digest(self):
        g = corrcolor.gen_random_bipartite_regular(80, 24, seed=2)
        cover = random_cover(g, 48, seed=1)
        result = corrcolor.run_nibble(g, cover, corrcolor.relaxed_params(), seed=0)
        # a run that rounds more than once
        assert (result.status, result.steps, result.final_attempts) == ("success", 8, 2)
        assert nibble_digest(result) == (
            "8dfac40bf70a03c6c281faf095c4d41c6b14f255a6a4089fdc2db9db77726a88"
        )

    def test_schedule_nibble_digest(self):
        # every deviation and the niceness target feed the scheduled run
        g = corrcolor.gen_random_bipartite_regular(20, 6, seed=3)
        cover = random_cover(g, 40, seed=4)
        params = corrcolor.paper_params(ck=25, shrink_factor=1.0, tol_scale=0.5)
        result = corrcolor.run_nibble(g, cover, params, seed=5)
        assert (result.status, result.mode, result.istar) == ("success", "schedule", 1)
        assert nibble_digest(result) == (
            "68efbb9479bd84eea24cddbb71a566855c1be8b99177bdd369152be11ec0fa6f"
        )

    def test_not_nice_nibble_digest(self):
        # the detail carries the entry-condition report, the only output of
        # the entropy slack, the hypothesis deviation and the edge-mass cap
        g = corrcolor.gen_random_bipartite_regular(100, 12, seed=7)
        cover = random_cover(g, 30, seed=8)
        params = corrcolor.relaxed_params(max_steps=1)
        result = corrcolor.run_nibble(g, cover, params, seed=9)
        assert (result.status, result.steps) == ("not-nice", 1)
        assert "entry conditions: {'vertex_mass_ok'" in result.detail
        assert nibble_digest(result) == (
            "47f44586b3b8243b7df5de8a10806863f897ef811241904090c7de5e7d1c5af3"
        )

    def test_stuck_vertex_nibble_digest(self):
        g = corrcolor.gen_random_bipartite_regular(6, 3, seed=0)
        cover = random_cover(g, 4, seed=0)
        result = corrcolor.run_nibble(g, cover, corrcolor.relaxed_params(), seed=0)
        assert (result.status, result.steps) == ("not-nice", 1)
        assert result.detail == (
            "vertex 2 has no moderate color left and can never get one"
        )
        assert nibble_digest(result) == (
            "45c5e3bbbb0c572988e530dcce0c9aa897162acc1ec91fcbde73baaf3c8cd0a5"
        )

    @pytest.mark.parametrize(
        "shape, k, cover_seed, params, seed, expected, digest",
        [
            (
                (6, 3, 0), 7, 1, corrcolor.relaxed_params(), 0,
                ("success", "adaptive", 3),
                "8956f5f947b2d60248ecbdf94a1a54e294dcb7125abe1f040db4f63ced32d2f5",
            ),
            (
                (12, 4, 17), 22, 0,
                corrcolor.relaxed_params(max_final_retries=1, max_steps=2), 4,
                ("final-color-exhausted", "adaptive", 2),
                "5935dbbd9fb983e924b8a04b1d23b5571fb959c44c2530ee842e4680a29eb644",
            ),
            (
                (6, 3, 4), 4, 1,
                corrcolor.paper_params(ck=10, shrink_factor=1.0, tol_scale=1.0), 1,
                ("step-retries-exhausted", "adaptive", 0),
                "0c6d0b7aaf1c487fd0bc27fa1905be173d2212ee8cddb26b3819f8e237647455",
            ),
            (
                (6, 3, 0), 4, 0,
                corrcolor.relaxed_params(tol_scale=0.01, max_retries_per_step=1), 0,
                ("step-retries-exhausted", "schedule", 0),
                "f2d618e226362180f2aabccba6082d0f5b4227d750c9ce251300421dcb626664",
            ),
            (
                (6, 3, 0), 4, 0,
                corrcolor.paper_params(ck=25, shrink_factor=1.0, tol_scale=0.5), 0,
                ("not-nice", "schedule", 0),
                "4df975a31fa1c8f4261919c6f7e1509139c70736d19c85bbdaa899004acd4804",
            ),
            (
                (20, 6, 0), 40, 0,
                corrcolor.paper_params(
                    ck=25, shrink_factor=1.0, tol_scale=0.5, max_final_retries=1
                ),
                4,
                ("final-color-exhausted", "schedule", 1),
                "809fcdfd4bd10c53653e930937aaf946bd26a3acf4ad571e000ac91e8504ce45",
            ),
        ],
        ids=[
            "adaptive-drained", "adaptive-round-exhausted", "adaptive-step-exhausted",
            "schedule-step-exhausted", "schedule-not-nice", "schedule-round-exhausted",
        ],
    )
    def test_nibble_exit_digest(
        self, shape, k, cover_seed, params, seed, expected, digest
    ):
        # every exit of the step loop, in both modes
        n_side, d, graph_seed = shape
        g = corrcolor.gen_random_bipartite_regular(n_side, d, seed=graph_seed)
        cover = random_cover(g, k, seed=cover_seed)
        result = corrcolor.run_nibble(g, cover, params, seed=seed)
        assert (result.status, result.mode, result.steps) == expected
        assert nibble_digest(result) == digest

    def test_lb_experiment_digest(self, tmp_path):
        # colorable, refuted and budget-capped trials, so every tally, the
        # witness index, the mean and the SEM are read; the whole report is
        # pinned from when it began to carry q, node_budget and the counts
        gpath, out = tmp_path / "g.json", tmp_path / "r.json"
        witness = tmp_path / "w.json"
        assert main([
            "gen-graph", "complete-bipartite", "--a", "3", "--b", "3",
            "--out", str(gpath),
        ]) == 0
        assert main([
            "lb-experiment", "--graph", str(gpath), "--k", "2", "--trials", "20",
            "--seed", "5", "--mode", "bernoulli", "--q", "0.8",
            "--node-budget", "10", "--witness-out", str(witness), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert (
            report["colorable_count"],
            report["noncolorable_count"],
            report["cap_exceeded_count"],
            report["witness_trial"],
            report["mean_colorings_empirical"],
            report["q"],
            report["node_budget"],
        ) == (6, 9, 5, 6, 7 / 15, 0.8, 10)
        # the counts are those once written as a "trial,count" CSV, with an
        # empty count for a capped trial; the other keys are as pinned before
        csv = "trial,count\n" + "".join(
            f"{i},{'' if c is None else c}\n"
            for i, c in enumerate(report["per_trial_counts"])
        )
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "cb06c1d564c5057baa1f323548cef5ddd03cef30a455dca3a51b1c7b9977355f"
        )
        older = {
            key: value
            for key, value in report.items()
            if key not in ("per_trial_counts", "q", "node_budget")
        }
        older = (json.dumps(older, indent=2, sort_keys=True) + "\n").encode()
        assert hashlib.sha256(older).hexdigest() == (
            "5dc0a24db3739bd13bd213295dd3099feef2c3c34533b9de65e742286b671792"
        )
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out, witness)
        }
        assert digests == {
            "r.json": "ae8d7119e36ae0bd99114f965bdf9c81223953b9ca4011c440423593cbd2a7d9",
            "w.json": "a0ae8af0c5c503aa9492ef80b5b27bd1198b3ad1964ff18bed2029f377423652",
        }


class TestValidateAndSolve:
    def test_validate_ok(self, capsys, c6_files):
        gpath, cpath = c6_files
        code, out, _ = run_cli(capsys, "validate", "--graph", gpath, "--cover", cpath)
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_solve_count(self, capsys, c6_files):
        gpath, cpath = c6_files
        code, out, _ = run_cli(
            capsys, "solve", "--graph", gpath, "--cover", cpath, "--count"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "colorable"
        assert doc["count"] >= 1
        assert doc["nodes_explored"] > 0
        coloring = {int(v): x for v, x in doc["coloring"].items()}
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=5)
        from corrcolor import is_valid_coloring

        assert is_valid_coloring(g, cover, coloring)

    def test_solve_restrict(self, tmp_path, capsys, c6_files):
        gpath, cpath = c6_files
        cover = random_cover(gen_cycle(6), 3, seed=5)
        lists = cover.lists
        restrict = {str(v): [lists[v][0]] for v in range(6)}
        rpath = write(tmp_path, "r.json", restrict)
        code, out, _ = run_cli(
            capsys,
            "solve",
            "--graph",
            gpath,
            "--cover",
            cpath,
            "--restrict",
            rpath,
        )
        assert code == 0
        doc = json.loads(out)
        if doc["status"] == "colorable":
            assert all(
                doc["coloring"][str(v)] == lists[v][0] for v in range(6)
            )

    def test_solve_restrict_unknown_vertex_is_exit_1(self, tmp_path, capsys, c6_files):
        gpath, cpath = c6_files
        rpath = write(tmp_path, "r.json", {"9": [1]})
        code, out, err = run_cli(
            capsys, "solve", "--graph", gpath, "--cover", cpath, "--restrict", rpath
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "restrict",
        [
            {"a": [1]}, {"0": 5}, {"0": ["1"]}, {"0": [1.5]},
            # int() reads these keys as vertex 10, 1 and 1
            {"1_0": [0]}, {" +1": [0]}, {"\u0661": [0]},
            [[0]],
        ],
        ids=str,
    )
    def test_solve_restrict_malformed_is_exit_2(self, tmp_path, capsys, c6_files, restrict):
        gpath, cpath = c6_files
        rpath = write(tmp_path, "r.json", restrict)
        code, out, err = run_cli(
            capsys, "solve", "--graph", gpath, "--cover", cpath, "--restrict", rpath
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_solve_decide_count_is_null_when_refuted_before_search(
        self, tmp_path, capsys, c6_files
    ):
        gpath, cpath = c6_files
        rpath = write(tmp_path, "r.json", {"0": []})
        for flags, count in (([], None), (["--count"], 0)):
            code, out, _ = run_cli(
                capsys, "solve", "--graph", gpath, "--cover", cpath,
                "--restrict", rpath, *flags,
            )
            assert code == 0
            doc = json.loads(out)
            assert (doc["status"], doc["count"], doc["nodes_explored"]) == (
                "not-colorable", count, 0
            )

    def test_solve_long_cycle(self, tmp_path, capsys):
        # deeper than Python's default recursion limit
        gpath = str(tmp_path / "g.json")
        cpath = str(tmp_path / "c.json")
        assert main(["gen-graph", "cycle", "--n", "1200", "--out", gpath]) == 0
        assert main(
            ["gen-cover", "--graph", gpath, "--k", "3", "--seed", "2", "--out", cpath]
        ) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "solve", "--graph", gpath, "--cover", cpath)
        assert code == 0
        assert json.loads(out)["status"] == "colorable"

    def test_lift_subcommand(self, tmp_path, capsys):
        gpath = write(tmp_path, "g.json", {"n": 2, "edges": [[0, 1]]})
        lpath = write(tmp_path, "l.json", [[1, 2], [2, 3]])
        code, out, _ = run_cli(capsys, "lift", "--graph", gpath, "--lists", lpath)
        assert code == 0
        doc = json.loads(out)
        assert doc["matchings"]["0,1"] == [[1, 2]]

    @pytest.mark.parametrize(
        "lists, message",
        [
            ([1, 2, 3, 4], "label list of vertex 0 "),
            ([[1], "ab", [2], [3]], "label list of vertex 1 "),
            ([[1], [2], [[1]], [3]], "label list of vertex 2 "),
            ([[1], [2], [3], [{"a": 1}]], "label list of vertex 3 "),
            ([["a", 1], [1], [2], [3]], "label list of vertex 0 "),
            ([[1], [None], [2], [3]], "label list of vertex 1 "),
            ([[1, 2], [True, 2], [2, 3], [3, 1]], "label list of vertex 1 "),
            ({"0": [1]}, "lists document must be a JSON array"),
        ],
        ids=[
            "number", "string", "array-label", "object-label", "mixed", "null-label",
            "bool-label", "object",
        ],
    )
    def test_lift_malformed_lists_is_exit_2(self, tmp_path, capsys, lists, message):
        edges = [[0, 1], [1, 2], [2, 3], [0, 3]]
        gpath = write(tmp_path, "g.json", {"n": 4, "edges": edges})
        lpath = write(tmp_path, "l.json", lists)
        code, out, err = run_cli(capsys, "lift", "--graph", gpath, "--lists", lpath)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestStats:
    def test_independent_recompute(self, tmp_path, capsys):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=7)
        rng = np.random.default_rng(3)
        p = rng.uniform(0.0, 0.2, cover.n_colors)
        gpath = write(tmp_path, "g.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        cpath = write(tmp_path, "c.json", cover_to_json_dict(cover))
        wpath = write(tmp_path, "w.json", {"p_hat": 0.2, "p": list(p)})
        code, out, _ = run_cli(
            capsys, "stats", "--graph", gpath, "--cover", cpath, "--weights", wpath
        )
        assert code == 0
        doc = json.loads(out)
        lists, matchings = cover.lists, cover.matchings
        for v in range(4):
            want = fsum_by_color([p[x] for x in lists[v]], order_seed=v)
            assert doc["p_v"][v] == pytest.approx(want, rel=1e-12)
            want_q = fsum_by_color(
                [-p[x] * math.log(p[x]) for x in lists[v] if p[x] > 0],
                order_seed=v,
            )
            assert doc["Q_v"][v] == pytest.approx(want_q, rel=1e-12)
        for key, val in doc["p_uv"].items():
            u, vv = map(int, key.split(","))
            want = fsum_by_color(
                [p[x] * p[y] for x, y in matchings[(u, vv)]], order_seed=u
            )
            assert val == pytest.approx(want, rel=1e-12)
        assert doc["nice"] is None or doc["nice"] > 0

    def test_nice_delta_reported(self, tmp_path, capsys):
        g = gen_cycle(4)
        cover = random_cover(g, 70, seed=0)
        gpath = write(
            tmp_path, "g.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
        )
        from corrcolor import cover_to_json_dict as c2j

        cpath = write(tmp_path, "c.json", c2j(cover))
        wpath = write(
            tmp_path, "w.json", {"p_hat": 0.02, "p": [0.01] * cover.n_colors}
        )
        code, out, _ = run_cli(
            capsys, "stats", "--graph", gpath, "--cover", cpath, "--weights", wpath
        )
        assert code == 0
        assert json.loads(out)["nice"] == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize(
        "p, p_hat, key",
        [
            (["a"] * 12, 0.2, '"p"'),
            ([[0.1]] * 12, 0.2, '"p"'),
            ([True] * 12, 0.2, '"p"'),
            ([10**400] * 12, 0.2, '"p"'),
            (None, 0.2, '"p"'),
            ([0.1] * 12, "x", '"p_hat"'),
            ([0.1] * 12, True, '"p_hat"'),
            ([0.1] * 11 + [math.nan], 0.2, "[0, p_hat]"),
            ([0.1] * 12, math.inf, "finite"),
            ([0.1] * 11, 0.2, "length 11"),
            ("absent", 0.2, '"p" and "p_hat"'),
            ([0.1] * 12, "absent", '"p" and "p_hat"'),
        ],
        ids=[
            "string", "nested", "bool", "huge-int", "null", "cap-string",
            "cap-bool", "nan", "inf-cap", "short", "no-p", "no-cap",
        ],
    )
    def test_bad_weights_document_is_exit_2(self, tmp_path, capsys, p, p_hat, key):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=7)
        gpath = write(tmp_path, "g.json", {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]})
        cpath = write(tmp_path, "c.json", cover_to_json_dict(cover))
        doc = {name: x for name, x in (("p_hat", p_hat), ("p", p)) if x != "absent"}
        wpath = write(tmp_path, "w.json", doc)
        code, out, err = run_cli(
            capsys, "stats", "--graph", gpath, "--cover", cpath, "--weights", wpath
        )
        assert code == 2 and out == ""
        assert key in err and err.count("\n") == 1


class TestLbExperiment:
    def test_witness_and_csv(self, tmp_path, capsys):
        # the per-trial counts, once a CSV file, are in the report
        gpath = str(tmp_path / "g.json")
        main(["gen-graph", "complete-bipartite", "--a", "4", "--b", "4", "--out", gpath])
        wpath = str(tmp_path / "w.json")
        outpath = str(tmp_path / "r.json")
        code = main(
            [
                "lb-experiment",
                "--graph",
                gpath,
                "--k",
                "2",
                "--trials",
                "20",
                "--seed",
                "3",
                "--witness-out",
                wpath,
                "--out",
                outpath,
            ]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads(open(outpath).read())
        assert report["trials"] == 20
        counts = report["per_trial_counts"]
        assert len(counts) == 20
        assert counts.count(0) == report["noncolorable_count"]
        if report["noncolorable_count"] > 0:
            witness = cover_from_json_dict(json.loads(open(wpath).read()))
            g = graph_from_json_dict(json.loads(open(gpath).read()))
            assert solve_exact(g, witness) is None

    def test_no_witness_when_all_colorable(self, tmp_path, capsys):
        # a graph of maximum degree 2 is colorable from every 3-fold cover
        gpath = str(tmp_path / "g.json")
        assert main(["gen-graph", "cycle", "--n", "4", "--out", gpath]) == 0
        wpath = tmp_path / "w.json"
        code, out, err = run_cli(
            capsys, "lb-experiment", "--graph", gpath, "--k", "3", "--trials", "3",
            "--witness-out", str(wpath),
        )
        assert code == 0
        assert json.loads(out)["noncolorable_count"] == 0
        assert err == "no non-colorable cover found; witness not written\n"
        assert not wpath.exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        main(["gen-graph", "cycle", "--n", "4", "--out", gpath])
        outs = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            code = main(
                [
                    "lb-experiment",
                    "--graph",
                    gpath,
                    "--k",
                    "2",
                    "--trials",
                    "30",
                    "--seed",
                    "12",
                    "--out",
                    path,
                ]
            )
            assert code == 0
            outs.append(open(path, "rb").read())
        capsys.readouterr()
        assert outs[0] == outs[1]


class TestNibbleCli:
    def test_run_with_trace(self, tmp_path, capsys):
        # the trajectory, once also a trace CSV file, is in the result
        gpath = str(tmp_path / "g.json")
        cpath = str(tmp_path / "c.json")
        outpath = str(tmp_path / "res.json")
        main(
            ["gen-graph", "random-bipartite-regular", "--n-side", "20", "--d", "6",
             "--seed", "1", "--out", gpath]
        )
        main(["gen-cover", "--graph", gpath, "--k", "16", "--seed", "2", "--out", cpath])
        code = main(
            [
                "nibble",
                "--graph",
                gpath,
                "--cover",
                cpath,
                "--preset",
                "relaxed",
                "--seed",
                "4",
                "--out",
                outpath,
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(open(outpath).read())
        assert doc["status"] in (
            "success",
            "not-nice",
            "final-color-exhausted",
            "step-retries-exhausted",
        )
        columns = ["step", "min_pv", "max_pv", "min_Q", "max_deg", "removed", "retries"]
        assert all(sorted(row) == sorted(columns) for row in doc["trajectory"])
        lines = [",".join(columns)] + [
            ",".join(repr(row[c]) for c in columns) for row in doc["trajectory"]
        ]
        # the trace CSV's digest, pinned since the bipartite generator's
        # switch repair
        assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == (
            "fca58dbb2389fb65edac51412019c05319e566e9de548c47b4065214bfc1f997"
        )
        if doc["status"] == "success":
            g = graph_from_json_dict(json.loads(open(gpath).read()))
            cover = cover_from_json_dict(json.loads(open(cpath).read()))
            coloring = {int(v): x for v, x in doc["coloring"].items()}
            from corrcolor import is_valid_coloring

            assert is_valid_coloring(g, cover, coloring)

    def test_generated_cover_skips_json_decoding(self, tmp_path, capsys, monkeypatch):
        # a gen-cover file is read on the arrays; a compact dump of the same
        # document takes the general reader, with the same result
        gpath, cpath = str(tmp_path / "g.json"), str(tmp_path / "c.json")
        main(["gen-graph", "random-bipartite-regular", "--n-side", "20", "--d", "6",
              "--seed", "1", "--out", gpath])
        main(["gen-cover", "--graph", gpath, "--k", "16", "--seed", "2",
              "--out", cpath])
        compact = write(tmp_path, "compact.json", json.loads(Path(cpath).read_text()))
        decoded = []
        loads = json.loads

        def spy(text, *args, **kwargs):
            decoded.append('"matchings"' in text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        digests = []
        for path in (cpath, compact):
            decoded.clear()
            out = str(tmp_path / "res.json")
            argv = ["nibble", "--graph", gpath, "--cover", path, "--seed", "4"]
            assert main([*argv, "--out", out]) == 0
            digests.append(hashlib.sha256(Path(out).read_bytes()).hexdigest())
            assert decoded == ([False, True] if path == compact else [False])
        capsys.readouterr()
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("preset", ["paper", "relaxed"])
    def test_param_flags_reach_params(self, monkeypatch, capsys, c6_files, preset):
        seen = []

        def fake_run_nibble(g, cover, params, seed):
            seen.append(params)
            raise corrcolor.DomainError("stopped after reading params")

        monkeypatch.setattr(corrcolor.cli, "run_nibble", fake_run_nibble)
        gpath, cpath = c6_files
        code, _, _ = run_cli(
            capsys, "nibble", "--graph", gpath, "--cover", cpath, "--preset", preset,
            "--ck", "7.5", "--tol-scale", "2.5", "--max-steps", "3",
            "--max-retries-per-step", "4", "--max-final-retries", "5",
        )
        assert code == 1
        make = corrcolor.paper_params if preset == "paper" else corrcolor.relaxed_params
        assert seen == [
            make(
                ck=7.5,
                tol_scale=2.5,
                max_steps=3,
                max_retries_per_step=4,
                max_final_retries=5,
            )
        ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--ck", "--tol-scale"])
    def test_nonfinite_param_flag_is_exit_1(self, tmp_path, capsys, flag, value):
        gpath, cpath = str(tmp_path / "g.json"), str(tmp_path / "c.json")
        main(["gen-graph", "random-bipartite-regular", "--n-side", "8", "--d", "3",
              "--seed", "1", "--out", gpath])
        main(["gen-cover", "--graph", gpath, "--k", "6", "--seed", "1", "--out", cpath])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "nibble", "--graph", gpath, "--cover", cpath, "--preset",
            "relaxed", "--seed", "1", flag, value,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        name = flag[2:].replace("-", "_")
        assert err == f"error: {name} must be a finite number above 0, got {value}\n"

    def test_list_size_constant_overflow_is_exit_1(self, tmp_path, capsys):
        # ck * max_deg overflows to inf, so no list size exists
        gpath, cpath = str(tmp_path / "g.json"), str(tmp_path / "c.json")
        main(["gen-graph", "random-bipartite-regular", "--n-side", "8", "--d", "3",
              "--seed", "1", "--out", gpath])
        main(["gen-cover", "--graph", gpath, "--k", "6", "--seed", "1", "--out", cpath])
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "nibble", "--graph", gpath, "--cover", cpath, "--preset",
            "relaxed", "--seed", "1", "--ck", "1e308",
        )
        assert (code, out) == (1, "")
        assert err == "error: ck=1e+308 with max_deg=3 gives no finite list size\n"

    def test_graph_without_vertices_is_exit_1(self, tmp_path, capsys):
        gpath = write(tmp_path, "g.json", {"n": 0, "edges": []})
        cpath = write(tmp_path, "c.json", {"k_per_vertex": [], "lists": [], "matchings": {}})
        code, out, err = run_cli(capsys, "nibble", "--graph", gpath, "--cover", cpath)
        assert (code, out) == (1, "")
        assert err == "error: the graph has no vertices; the nibble needs at least one\n"

    def test_negative_seed_on_edgeless_graph_is_exit_1(self, tmp_path, capsys):
        # no edge means no step and no rounding, so no stream is ever derived
        gpath = write(tmp_path, "g.json", {"n": 2, "edges": []})
        cpath = write(
            tmp_path, "c.json", {"k_per_vertex": [2, 2], "lists": [[0, 1], [2, 3]],
                                 "matchings": {}}
        )
        argv = ["nibble", "--graph", gpath, "--cover", cpath]
        assert run_cli(capsys, *argv, "--seed", "0")[0] == 0
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: seed must be an integer of at least 0, got -1\n"

    def test_triangle_is_domain_error(self, tmp_path, capsys):
        gpath = write(tmp_path, "g.json", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
        cpath = str(tmp_path / "c.json")
        main(["gen-cover", "--graph", gpath, "--k", "3", "--seed", "0", "--out", cpath])
        code, _, err = run_cli(
            capsys, "nibble", "--graph", gpath, "--cover", cpath, "--seed", "0"
        )
        assert code == 1
        assert "triangle" in err


# Every flag of every command, by the words that name the command.
CLI_FLAGS = {
    "gen-graph cycle": "--n --out",
    "gen-graph complete-bipartite": "--a --b --out",
    "gen-graph random-regular": "--n --d --seed --triangle-free --out",
    "gen-graph random-bipartite-regular": "--n-side --d --seed --out",
    "gen-cover": "--graph --k --mode --q --seed --out",
    "lift": "--graph --lists --out",
    "validate": "--graph --cover --out",
    "solve": "--graph --cover --count --restrict --node-budget --out",
    "lb-experiment": "--graph --k --mode --q --seed --trials --node-budget"
    " --witness-out --out",
    "stats": "--graph --cover --weights --out",
    "nibble": "--graph --cover --preset --seed --ck --tol-scale --max-steps"
    " --max-retries-per-step --max-final-retries --out",
}


def command_parsers(parser, words=()):
    """Each command's parser, by the words that name the command."""
    subparsers = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if not subparsers:
        yield " ".join(words), parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from command_parsers(sub, (*words, name))


class TestCliSurface:
    """The flags of the command line, pinned so that no refactor of the
    parser drops, adds or renames one."""

    def test_commands(self):
        parsers = dict(command_parsers(build_parser()))
        assert list(parsers) == list(CLI_FLAGS)
        assert sum(len(flags.split()) for flags in CLI_FLAGS.values()) == 55

    @pytest.mark.parametrize("command", list(CLI_FLAGS))
    def test_flags(self, command):
        parser = dict(command_parsers(build_parser()))[command]
        flags = [s for a in parser._actions for s in a.option_strings]
        assert sorted(flags) == sorted(["-h", "--help", *CLI_FLAGS[command].split()])

    def test_nibble_overrides_are_params_fields(self):
        # each override flag sets the NibbleParams field of its name and type;
        # shrink_factor is set only by the presets
        types = {f.name: type(f.default) for f in dataclasses.fields(NibbleParams)}
        del types["shrink_factor"]
        assert types == NIBBLE_OVERRIDES

    @pytest.mark.parametrize(
        "argv",
        [
            ["lb-experiment", "--graph", "g", "--k", "2", "--trials", "1",
             "--trials-csv", "t.csv"],
            ["nibble", "--graph", "g", "--cover", "c", "--trace", "t.csv"],
        ],
        ids=["trials-csv", "trace"],
    )
    def test_removed_flag_is_exit_2(self, capsys, argv):
        # the per-trial counts and the trajectory are in the result document
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: corrcolor: unrecognized arguments: {argv[-2]} t.csv\n"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "command",
        ["random-regular", "random-bipartite-regular", "gen-cover", "lb-experiment",
         "nibble"],
    )
    def test_negative_seed_is_exit_1(self, capsys, c6_files, command):
        gpath, cpath = c6_files
        argv = {
            "random-regular": ["gen-graph", "random-regular", "--n", "10", "--d", "3"],
            "random-bipartite-regular": [
                "gen-graph", "random-bipartite-regular", "--n-side", "5", "--d", "2",
            ],
            "gen-cover": ["gen-cover", "--graph", gpath, "--k", "3"],
            "lb-experiment": ["lb-experiment", "--graph", gpath, "--k", "2",
                              "--trials", "1"],
            "nibble": ["nibble", "--graph", gpath, "--cover", cpath],
        }[command]
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: seed must be an integer of at least 0, got -1\n"

    def test_vertex_count_beyond_the_limit_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "gen-graph", "cycle", "--n", str(2**62))
        assert (code, out) == (1, "")
        assert err == f"error: n must be an integer from 3 to 2**31 - 1, got {2**62}\n"

    def test_list_size_beyond_the_arrays_is_exit_1(self, capsys, tmp_path):
        # 4 * k colors would not fit in one int64 array
        edges = [[0, 1], [1, 2], [2, 3], [0, 3]]
        gpath = write(tmp_path, "g4.json", {"n": 4, "edges": edges})
        argv = ["gen-cover", "--graph", gpath, "--k", str(2**62)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: k must be an integer from 1 to 2**58 - 1, got {2**62}\n"

    @pytest.mark.parametrize("q", ["nan", "-0.5"])
    @pytest.mark.parametrize("command", ["gen-cover", "lb-experiment"])
    def test_bad_q_in_perfect_mode_is_exit_1(self, tmp_path, capsys, c6_files, command, q):
        # q would be written into the manifest, and NaN is not strict JSON
        gpath, _ = c6_files
        out = str(tmp_path / "out.json")
        argv = {
            "gen-cover": ["gen-cover", "--graph", gpath, "--k", "3"],
            "lb-experiment": ["lb-experiment", "--graph", gpath, "--k", "2",
                              "--trials", "1"],
        }[command]
        code, stdout, err = run_cli(capsys, *argv, "--q", q, "--out", out)
        assert (code, stdout) == (1, "")
        assert err == f"error: q must be a finite number from 0 to 1, got {float(q)}\n"
        assert not Path(out).exists() and not Path(out + ".manifest.json").exists()

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "validate",
            "--graph",
            str(tmp_path / "nope.json"),
            "--cover",
            str(tmp_path / "nope2.json"),
        )
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("target", ["missing-dir", "dir"])
    @pytest.mark.parametrize(
        "flag",
        ["gen-graph --out", "solve --out", "--witness-out"],
    )
    def test_unwritable_output_is_exit_2(
        self, tmp_path, capsys, c6_files, flag, target
    ):
        gpath, cpath = c6_files
        path = str(tmp_path / "missing" / "x" if target == "missing-dir" else tmp_path)
        # every 2-fold cover of K4 is non-colorable, so a witness is written
        edges = [[u, v] for u in range(4) for v in range(u + 1, 4)]
        k4 = write(tmp_path, "k4.json", {"n": 4, "edges": edges})
        lb = ["lb-experiment", "--graph", k4, "--k", "2", "--trials", "1"]
        argv = {
            "gen-graph --out": ["gen-graph", "cycle", "--n", "4", "--out", path],
            "solve --out": ["solve", "--graph", gpath, "--cover", cpath, "--out", path],
            "--witness-out": [*lb, "--witness-out", path],
        }[flag]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_unwritable_manifest_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        manifest = tmp_path / "g.json.manifest.json"
        manifest.mkdir()
        code, _, err = run_cli(capsys, "gen-graph", "cycle", "--n", "4", "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: cannot write {manifest}: ") and err.count("\n") == 1

    def test_bad_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "gen-cover", "--graph", str(path), "--k", "2"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, expected",
        [('{"n": 2, "edges": [[0, 1]]}', 0), ("{not json", 2)],
        ids=["good", "malformed"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_json_decode_pauses_collector(
        self, tmp_path, capsys, monkeypatch, enabled, text, expected
    ):
        # the collector is off while a document is decoded and is left as
        # it was found, whether or not the decode succeeds
        during = []
        loads = json.loads

        def spy(*args, **kwargs):
            during.append(gc.isenabled())
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        path = tmp_path / "g.json"
        path.write_text(text, encoding="utf-8")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = main(["gen-cover", "--graph", str(path), "--k", "2"])
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()
        assert (code, during, after) == (expected, [False], enabled)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen-graph", "cycle", "--n", "6", "--wat"],
             "corrcolor: unrecognized arguments: --wat"),
            (["solve", "--graph", "g", "--cover", "c", "--node-budget", "abc"],
             "corrcolor solve: argument --node-budget: invalid int value: 'abc'"),
            (["solve", "--graph", "g"],
             "corrcolor solve: the following arguments are required: --cover"),
            (["wat"], "corrcolor: argument command: invalid choice: 'wat'"),
            ([], "corrcolor: the following arguments are required: command"),
        ],
        ids=["unknown-flag", "bad-int", "missing-flag", "unknown-command", "no-command"],
    )
    def test_unknown_flag_is_exit_2(self, capsys, argv, message):
        # a usage error is one line and exit 2, as a malformed input file is
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: corrcolor solve ")

    def test_solve_rejects_invalid_cover(self, tmp_path, capsys):
        gpath = write(tmp_path, "g.json", {"n": 2, "edges": [[0, 1]]})
        # matching pair points at a color outside the endpoint lists
        cpath = write(
            tmp_path,
            "c.json",
            {"lists": [[0], [1]], "matchings": {"0,1": [[0, 5]]}},
        )
        code, _, err = run_cli(capsys, "solve", "--graph", gpath, "--cover", cpath)
        assert code == 1
        assert "invalid cover" in err

    @pytest.mark.parametrize("command", ["solve", "stats", "nibble"])
    def test_invalid_cover_is_exit_1(self, tmp_path, capsys, command):
        # a cover-condition violation is a domain error under every command
        gpath = write(tmp_path, "g.json", {"n": 2, "edges": [[0, 1]]})
        cpath = write(
            tmp_path,
            "c.json",
            {"lists": [[0], [1]], "matchings": {"0,1": [[0, 5]]}},
        )
        wpath = write(tmp_path, "w.json", {"p_hat": 0.5, "p": [0.1, 0.1]})
        extra = ["--weights", wpath] if command == "stats" else []
        code, out, err = run_cli(
            capsys, command, "--graph", gpath, "--cover", cpath, *extra
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid cover: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "document", ["graph", "cover", "cover-late", "weights", "lists", "restrict"]
    )
    def test_non_utf8_input_is_exit_2(self, tmp_path, capsys, c6_files, document):
        gpath, cpath = c6_files
        bad = tmp_path / "bad.json"
        if document == "cover-late":
            # the canonical layout up to a stray byte, so it is scanned first
            data = Path(cpath).read_bytes()
            bad.write_bytes(data[:40] + b"\xff" + data[40:])
        else:
            bad.write_bytes(b'\xff\xfe{"n": 2}')
        on_c6 = ["--graph", gpath, "--cover", cpath]
        argv = {
            "graph": ["gen-cover", "--graph", str(bad), "--k", "2"],
            "cover": ["validate", "--graph", gpath, "--cover", str(bad)],
            "cover-late": ["validate", "--graph", gpath, "--cover", str(bad)],
            "weights": ["stats", *on_c6, "--weights", str(bad)],
            "lists": ["lift", "--graph", gpath, "--lists", str(bad)],
            "restrict": ["solve", *on_c6, "--restrict", str(bad)],
        }[document]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad} is not UTF-8 text")
        assert err.count("\n") == 1

    def test_dimacs_graph_accepted(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        path.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "gen-cover", "--graph", str(path), "--k", "2", "--seed", "1"
        )
        assert code == 0
        assert len(json.loads(out)["lists"]) == 4

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p edge x 3\n", 1),
            ("p edge 3 2\ne 1 2\ne 1 z\n", 3),
            ("p col 3 zz\ne 1 2\n", 1),
            ("p graph 3 1\ne 1 2\n", 1),
            ("p edge 3 -1\n", 1),
            ("p edge -1 0\n", 1),
            ("p edge 3 1\ne 1 2\np edge 5 1\n", 3),
            ("p edge 3 1 9\ne 1 2\n", 1),
            ("p edge 3 1\ne 1 2 9\n", 2),
        ],
    )
    def test_dimacs_non_integer_field_is_exit_2(self, tmp_path, capsys, text, line):
        path = tmp_path / "g.col"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "gen-cover", "--graph", str(path), "--k", "2")
        assert code == 2 and out == ""
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1

    def test_budget_exceeded_is_exit_1(self, tmp_path, capsys, c6_files):
        gpath, cpath = c6_files
        code, _, err = run_cli(
            capsys,
            "solve",
            "--graph",
            gpath,
            "--cover",
            cpath,
            "--count",
            "--node-budget",
            "2",
        )
        assert code == 1
        assert "budget" in err

    def test_internal_error_is_exit_1(self, monkeypatch, capsys, c6_files):
        def broken(*args, **kwargs):
            raise InternalConsistencyError("promotion branch reached with K(x) >= 1")

        monkeypatch.setattr("corrcolor.cli.run_nibble", broken)
        gpath, cpath = c6_files
        code, _, err = run_cli(
            capsys, "nibble", "--graph", gpath, "--cover", cpath, "--seed", "1"
        )
        assert code == 1
        assert err == "error: promotion branch reached with K(x) >= 1\n"

    def test_unexpected_exception_is_exit_3(self, monkeypatch, capsys, c6_files):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("corrcolor.cli.run_nibble", broken)
        gpath, cpath = c6_files
        code, _, err = run_cli(
            capsys, "nibble", "--graph", gpath, "--cover", cpath, "--seed", "1"
        )
        assert code == 3
        assert err == "error: internal: ValueError: boom\n"

    def test_lb_overflow_reports_null(self, tmp_path, capsys):
        # 60^400 e^(-400/60) and 60^400 (59/60)^400 exceed the float range;
        # the report still comes, with both values null.
        gpath = str(tmp_path / "g.json")
        assert main(["gen-graph", "cycle", "--n", "400", "--out", gpath]) == 0
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "lb-experiment", "--graph", gpath, "--k", "60",
            "--trials", "1", "--node-budget", "10", "--seed", "1",
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["first_moment_bound"] is None
        assert doc["expected_colorings_exact"] is None
        assert doc["bound_below_one"] is False
        assert doc["cap_exceeded_count"] == 1


def test_all_names_public_objects_only():
    # `from corrcolor import *` binds functions and classes, not submodules
    for name in corrcolor.__all__:
        assert not isinstance(getattr(corrcolor, name), types.ModuleType), name
    removed = {
        "vertex_mass", "edge_mass", "entropy", "moderate_mass", "moderate_edge_mass"
    }
    assert not removed & set(corrcolor.__all__)
    assert not any(hasattr(corrcolor.weights, name) for name in removed)


def test_help_ignores_stale_backend_variable():
    # This variable once chose a kernel backend at import time, and an
    # unavailable choice killed every command before argument parsing.
    src = str(Path(corrcolor.__file__).resolve().parents[1])
    env = dict(os.environ, CORRCOLOR_BACKEND="numba")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corrcolor.cli", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
