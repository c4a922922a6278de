import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrcolor
from corrcolor import (
    InternalConsistencyError,
    cover_from_json_dict,
    cover_to_json_dict,
    gen_cycle,
    graph_from_json_dict,
    random_cover,
    solve_exact,
)
from corrcolor.cli import main

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

    def test_manifest_written(self, tmp_path, capsys, c6_files):
        gpath, cpath = c6_files
        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert manifest["command"] == "gen-cover"
        assert manifest["seed"] == 5
        assert gpath in manifest["input_digests"]
        assert "timestamp" in manifest

    def test_gen_cover_matches_library(self, capsys, c6_files):
        gpath, cpath = c6_files
        doc = json.loads(open(cpath).read())
        assert cover_from_json_dict(doc) == random_cover(gen_cycle(6), 3, seed=5)


class TestByteIdentity:
    """Outputs pinned to digests recorded before covers became arrays."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--seed", "1"],
                "465126222fd2f852a89e4715baa0185af1baf5d482d9b9a0668d3b81b8660c8c",
            ),
            (
                ["--seed", "2"],
                "0ffda721fb3598ee072f3caf739d2f370abecac28f7f9c2fef8b297e54f74e72",
            ),
            (
                ["--seed", "3", "--mode", "bernoulli", "--q", "0.4"],
                "2e558853ba07a9405f7426459506863c9a0f237491ee438f862af3cd879cb8fa",
            ),
        ],
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

    def test_readme_nibble_digest(self):
        g = corrcolor.gen_random_bipartite_regular(100, 12, seed=7)
        cover = random_cover(g, 30, seed=8)
        result = corrcolor.run_nibble(g, cover, corrcolor.relaxed_params(), seed=9)
        payload = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert (result.status, result.steps) == ("success", 7)
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "a73eefda2ca8fa9274b1b660315c154c27ca74c2fe897b3e06d2b09d74af89bf"
        )


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
        restrict = {str(v): [cover.lists[v][0]] for v in range(6)}
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
                doc["coloring"][str(v)] == cover.lists[v][0] for v in range(6)
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
        "restrict", [{"a": [1]}, {"0": 5}, {"0": ["1"]}, {"0": [1.5]}], ids=str
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
        for v in range(4):
            want = fsum_by_color([p[x] for x in cover.lists[v]], order_seed=v)
            assert doc["p_v"][v] == pytest.approx(want, rel=1e-12)
            want_q = fsum_by_color(
                [-p[x] * math.log(p[x]) for x in cover.lists[v] if p[x] > 0],
                order_seed=v,
            )
            assert doc["Q_v"][v] == pytest.approx(want_q, rel=1e-12)
        for key, val in doc["p_uv"].items():
            u, vv = map(int, key.split(","))
            want = fsum_by_color(
                [p[x] * p[y] for x, y in cover.matchings[(u, vv)]], order_seed=u
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


class TestLbExperiment:
    def test_witness_and_csv(self, tmp_path, capsys):
        gpath = str(tmp_path / "g.json")
        main(["gen-graph", "complete-bipartite", "--a", "4", "--b", "4", "--out", gpath])
        wpath = str(tmp_path / "w.json")
        csvpath = str(tmp_path / "t.csv")
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
                "--trials-csv",
                csvpath,
                "--out",
                outpath,
            ]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads(open(outpath).read())
        assert report["trials"] == 20
        lines = open(csvpath).read().strip().splitlines()
        assert lines[0] == "trial,count"
        assert len(lines) == 21
        if report["noncolorable_count"] > 0:
            witness = cover_from_json_dict(json.loads(open(wpath).read()))
            g = graph_from_json_dict(json.loads(open(gpath).read()))
            assert solve_exact(g, witness) is None

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
        gpath = str(tmp_path / "g.json")
        cpath = str(tmp_path / "c.json")
        tpath = str(tmp_path / "trace.csv")
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
                "--trace",
                tpath,
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
        lines = open(tpath).read().strip().splitlines()
        assert lines[0] == "step,min_pv,max_pv,min_Q,max_deg,removed,retries"
        assert len(lines) == len(doc["trajectory"]) + 1
        if doc["status"] == "success":
            g = graph_from_json_dict(json.loads(open(gpath).read()))
            cover = cover_from_json_dict(json.loads(open(cpath).read()))
            coloring = {int(v): x for v, x in doc["coloring"].items()}
            from corrcolor import is_valid_coloring

            assert is_valid_coloring(g, cover, coloring)

    def test_triangle_is_domain_error(self, tmp_path, capsys):
        gpath = write(tmp_path, "g.json", {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]})
        cpath = str(tmp_path / "c.json")
        main(["gen-cover", "--graph", gpath, "--k", "3", "--seed", "0", "--out", cpath])
        code, _, err = run_cli(
            capsys, "nibble", "--graph", gpath, "--cover", cpath, "--seed", "0"
        )
        assert code == 1
        assert "triangle" in err


class TestErrorPaths:
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

    def test_bad_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "gen-cover", "--graph", str(path), "--k", "2"
        )
        assert code == 2

    def test_unknown_flag_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "cycle", "--n", "6", "--wat"])
        assert exc.value.code == 2

    def test_solve_rejects_invalid_cover(self, tmp_path, capsys):
        gpath = write(tmp_path, "g.json", {"n": 2, "edges": [[0, 1]]})
        # matching pair points at a color outside the endpoint lists
        cpath = write(
            tmp_path,
            "c.json",
            {"lists": [[0], [1]], "matchings": {"0,1": [[0, 5]]}},
        )
        code, _, err = run_cli(capsys, "solve", "--graph", gpath, "--cover", cpath)
        assert code == 2
        assert "invalid cover" in err

    def test_dimacs_graph_accepted(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        path.write_text("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "gen-cover", "--graph", str(path), "--k", "2", "--seed", "1"
        )
        assert code == 0
        assert len(json.loads(out)["lists"]) == 4

    @pytest.mark.parametrize(
        "text, line", [("p edge x 3\n", 1), ("p edge 3 2\ne 1 2\ne 1 z\n", 3)]
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
