"""The benchmark code under corrbench/ still finds what it reads of the library.

corrbench/tracer.py wraps library functions by name and forces cover
attributes by name, and corrbench/workloads.py reads `cover.lists` and
`cover.matchings`. A rename in the library would silently drop a span or
break the harness; these tests read corrbench/ and change nothing there.
"""

import importlib.util
from pathlib import Path

import corrcolor.nibble
from corrcolor import gen_cycle, random_cover

TRACER_PY = Path(__file__).resolve().parents[1] / "corrbench" / "tracer.py"

# Wrapped by the tracer, but no longer imported by the CLI.
STALE_WRAPS = {"corrcolor.cli.cover_to_json_dict"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("corrbench_tracer", TRACER_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_library_name():
    tracer = load_tracer().Tracer()
    step = corrcolor.nibble.reduct_step
    try:
        tracer.install()
        assert corrcolor.nibble.reduct_step is not step
        assert set(tracer.missing) <= STALE_WRAPS
    finally:
        tracer.uninstall()
    assert corrcolor.nibble.reduct_step is step


def test_cover_has_every_attribute_the_benchmark_reads():
    module = load_tracer()
    caches = module.NIBBLE_CACHES + module.SOLVER_CACHES
    names = {prop for prop, _ in caches} | {"lists", "matchings"}
    cover = random_cover(gen_cycle(5), 3, seed=0)
    assert not [name for name in sorted(names) if not hasattr(cover, name)]
    tracer = module.Tracer()
    tracer.force_caches(cover, caches)
    assert set(tracer.self_s) == {layer for _, layer in caches}
