"""Every boundary the benchmark's tracer wraps is a function or method that
mdgkit defines, so deleting or renaming a traced name fails here and not
only in a traced benchmark run.

`perfbench/tracing.py` is read as it stands: `BOUNDARIES` names each
boundary as "<module>.<function>" or "<module>.<Class>.<method>" relative to
the package, and `EXPECTED` names, per workload, the boundaries that must
record calls.  The tracer wraps a method through the class's own
`__dict__`, so an inherited method would not do."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACING = (Path(__file__).resolve().parent.parent / "perfbench"
           / "tracing.py")


def _tracing():
    """The module's names, from its source: compiled here, so no bytecode
    cache is written next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


tracing = _tracing()


@pytest.mark.parametrize("boundary", tracing.BOUNDARIES)
def test_every_boundary_is_a_function_mdgkit_defines(boundary):
    mod_name, _, qual = boundary.partition(".")
    module = importlib.import_module(f"mdgkit.{mod_name}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        fn = vars(getattr(module, cls_name)).get(meth)
    else:
        fn = vars(module).get(qual)
    assert inspect.isfunction(fn), f"{boundary} is not a function"
    assert (fn.__module__, fn.__qualname__) == (f"mdgkit.{mod_name}", qual)


def test_every_expected_name_is_a_boundary():
    assert len(set(tracing.BOUNDARIES)) == len(tracing.BOUNDARIES)
    for workload, names in tracing.EXPECTED.items():
        missing = set(names) - set(tracing.BOUNDARIES)
        assert not missing, (workload, missing)
    assert set(tracing.NO_ENGINE) <= set(tracing.EXPECTED)
