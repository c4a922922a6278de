"""The nibble, the lower-bound experiment and the CLI never import numpy.ma.

`np.unique` and a few other numpy functions import `numpy.ma` on first use,
which costs about 1 MB of peak memory in every process that touches them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

SCRIPT = """
import sys
import corrcolor as cc
from corrcolor.cli import main

g = cc.gen_random_bipartite_regular(30, 6, seed=1)
cc.gen_random_bipartite_regular(20, 15, seed=1)  # built as a complement
cover = cc.random_cover(g, 16, seed=2)
assert cc.run_nibble(g, cover, cc.relaxed_params(), seed=3).ok
cc.run_lb_experiment(cc.gen_complete_bipartite(3, 3), 2, 5, seed=4)
graph, cover, out = sys.argv[1:4]
assert main(["gen-graph", "random-bipartite-regular", "--n-side", "20", "--d", "6",
             "--seed", "5", "--out", graph]) == 0
assert main(["gen-cover", "--graph", graph, "--k", "16", "--seed", "6",
             "--out", cover]) == 0
assert main(["nibble", "--graph", graph, "--cover", cover, "--seed", "7",
             "--out", out]) == 0
print("numpy.ma" in sys.modules)
"""


def test_no_run_imports_numpy_ma(tmp_path):
    paths = [str(tmp_path / name) for name in ("g.json", "c.json", "r.json")]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
