"""The benchmark's tracer binds mindeg's layer functions by name; a rename
or deletion in the package would make `perfbench/run.py --trace 1` fail
with a KeyError. This test loads the tracer from its file and checks every
binding it makes."""

import importlib.util
import inspect
from pathlib import Path

import mindeg
from mindeg import cones

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_restore():
    tracer = _load_tracer()
    targets = tracer.targets(mindeg)
    originals = [vars(owner)[attr] for owner, attr, *_ in targets]
    with tracer.Installed(tracer.Tracer(), mindeg):
        for owner, attr, *_ in targets:
            assert attr in vars(owner), (owner, attr)
    assert [vars(owner)[attr] for owner, attr, *_ in targets] == originals


def test_sos_check_keeps_its_budget_keyword():
    # the tracer reads the budget from sos_check's signature
    assert "budget" in inspect.signature(cones.sos_check).parameters
