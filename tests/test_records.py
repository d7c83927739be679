"""Structural checks on the package's records and on what importing the package loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventnet
from eventnet import (
    CausalLattice,
    Foliation,
    NumericPolicy,
    Point,
    build_tensor_net,
    foliate,
    verify_nesting,
)
from eventnet import cli, errors, events, histories, linalg, measurement, opalg, policy
from eventnet import scenarios, spacetime

_MODULES = (cli, errors, events, histories, linalg, measurement, opalg, policy, scenarios,
            spacetime)


def test_importing_eventnet_loads_neither_dataclasses_nor_copy():
    # numpy is imported first and loads none of the four modules, so any that
    # is loaded came from the package; argparse and csv wait for main and CSV
    # output.  typing's NamedTuple is refused after numpy, so the import fails
    # if a record is built through it.
    src = str(Path(eventnet.__file__).resolve().parent.parent)
    code = ("import sys, typing, numpy\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a record is a typing.NamedTuple')\n"
            "typing.NamedTupleMeta.__new__ = refuse\n"
            "import eventnet, eventnet.cli\n"
            "print(sorted({'argparse', 'csv', 'dataclasses', 'copy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_the_set_up_path_imports_only_what_the_package_names():
    # benchmarks/setup_probe.py times this import with numpy already loaded;
    # numpy.random alone is about 17 ms of a sample-chain-100k set-up
    src = Path(eventnet.__file__).resolve().parent
    named = set()
    for path in src.glob("*.py"):  # the stdlib modules of every module-level import
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                named.add(node.module)
    named &= sys.stdlib_module_names
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import eventnet.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": str(src.parent)}
                           ).stdout.split()
    assert "eventnet.cli" in added
    # _json is the json package's own accelerator
    allowed = named | {"gc", "__future__", "_json"}
    assert [m for m in added if not (m.split(".")[0] in ("eventnet", "json") or m in allowed)
            ] == []
    assert [m for m in added if m.split(".")[0] in ("scipy", "argparse", "csv")
            or m.startswith("numpy.random")] == []


def test_no_class_of_the_package_is_a_dataclass():
    classes = [obj for mod in _MODULES for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__.startswith("eventnet")]
    assert {"NumericPolicy", "HistoryTree", "EventDetection", "RunConfig"} <= {
        cls.__name__ for cls in classes}
    assert [cls.__name__ for cls in classes if hasattr(cls, "__dataclass_fields__")] == []


@pytest.mark.parametrize("record, field, value", [
    (NumericPolicy(), "prob_floor", 0.5),
    (CausalLattice(2, 3), "extent_x", 4),
    (foliate(CausalLattice(2, 1)), "leaves", ()),
])
def test_frozen_records_refuse_assignment(record, field, value):
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=field):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=field):
        delattr(record, field)
    assert getattr(record, field) == before


def test_frozen_records_compare_and_hash_by_their_fields():
    assert CausalLattice(2, 3) == CausalLattice(2, 3, speed=1) != CausalLattice(2, 3, 2)
    assert hash(CausalLattice(2, 3)) == hash(CausalLattice(2, 3))
    assert foliate(CausalLattice(2, 1)) == Foliation(((Point(0, 0),), (Point(1, 0),)))
    assert NumericPolicy(branch_cap=7) == NumericPolicy(**NumericPolicy(branch_cap=7).as_dict())
    assert NumericPolicy(branch_cap=7) != NumericPolicy()
    assert repr(CausalLattice(2, 3)) == "CausalLattice(extent_tau=2, extent_x=3, speed=1)"


def test_policy_refuses_a_name_that_is_not_a_field():
    with pytest.raises(TypeError, match="trace_floor"):
        NumericPolicy(trace_floor=1e-9)


def test_named_tuple_records_are_immutable():
    rep = verify_nesting(build_tensor_net(CausalLattice(2, 1)), Point(0, 0), Point(1, 0))
    with pytest.raises(AttributeError):
        rep.holds = False
    assert rep.holds and not rep._replace(holds=False).holds
    assert rep._asdict()["rel_commutant_dim"] == rep.rel_commutant_dim == 4


def test_records_are_named_tuples_without_an_instance_dict():
    records = [obj for mod in _MODULES for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__ == mod.__name__]
    assert len(records) == 20
    for cls in records:
        assert vars(cls)["__slots__"] == () and cls._fields, cls.__name__
    point = Point(1, 2)
    assert repr(point) == "Point(tau=1, x=2)" and point[1:] == (2,) and point == (1, 2)
    assert not hasattr(point, "__dict__")
    assert scenarios.Expected("a", 1.0, 0.1, "d").kind == "exact"
    assert cli.RunConfig._field_defaults["mode"] == "enumerate"
    assert cli.RunConfig()._replace(seed=3).seed == 3
