"""Tests for configuration loading, the run driver, and report emission."""

import dataclasses
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventnet import (
    SCENARIO_BUILDERS,
    ActualEvent,
    BranchNode,
    CausalLattice,
    ConfigError,
    EvaluatedExpectation,
    RecordingReport,
    State,
    build_scenario,
    build_tensor_net,
    enumerate_tree,
    epr_scenario,
    foliate,
)
from eventnet.cli import (
    RunConfig,
    _tree_section,
    _Writer,
    emit_report,
    load_config,
    main,
    parse_report,
    run,
    serialize_report,
)
from eventnet.linalg import random_unitary
from eventnet.policy import NumericPolicy

import oracles


def _cfg(**fields):
    return load_config(None, fields)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_requires_scenario_or_net():
    with pytest.raises(ConfigError, match="required"):
        _cfg()


def test_config_rejects_scenario_and_net_together():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        _cfg(scenario="epr", net={"extent_tau": 1})


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown fields"):
        _cfg(scenario="epr", typo_field=1)


def test_config_rejects_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown name"):
        _cfg(scenario="warp-drive")


def test_config_rejects_bad_mode_and_format():
    with pytest.raises(ConfigError, match="mode"):
        _cfg(scenario="epr", mode="explode")
    with pytest.raises(ConfigError, match="format"):
        _cfg(scenario="epr", format="yaml")
    with pytest.raises(ConfigError, match="commutation"):
        _cfg(scenario="epr", commutation="ignore")


def test_config_rejects_bad_seed_and_epsilon():
    with pytest.raises(ConfigError, match="seed"):
        _cfg(scenario="epr", seed="lucky")
    with pytest.raises(ConfigError, match="epsilon"):
        _cfg(scenario="epr", epsilon=1.5)


def test_config_rejects_unknown_policy_keys():
    with pytest.raises(ConfigError, match="unknown tolerances"):
        _cfg(scenario="epr", policy={"tol_nonsense": 1e-9})


def test_main_rejects_the_removed_max_branches_field(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"scenario": "epr", "max_branches": 4}))
    assert main(["--config", str(path)]) == 1
    assert "unknown fields" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
def test_main_branch_cap_bounds_the_expected_block(tmp_path, capsys, mode):
    # sample mode still enumerates the scenario tree for its expected block
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({"scenario": "two-leaf-chain", "mode": mode, "samples": 3,
                                "policy": {"branch_cap": 4}}))
    assert main(["--config", str(path)]) == 3
    assert "branch cap" in capsys.readouterr().err


@pytest.mark.parametrize("target", [{"scenario": "epr"},
                                    {"net": {"kind": "cone", "extent_tau": 1,
                                             "extent_x": 2}}],
                         ids=["scenario", "net"])
@pytest.mark.parametrize("override", [{"prob_floor": "x"}, {"branch_cap": 0},
                                      {"branch_cap": 2.5}, {"branch_cap": True},
                                      {"gap_min": -1}, {"tol_tree": float("nan")}],
                         ids=["string", "zero-cap", "float-cap", "bool-cap", "negative", "nan"])
def test_main_rejects_bad_policy_overrides(tmp_path, capsys, target, override):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**target, "policy": override}))
    assert main(["--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


_CONE_1X2 = {"kind": "cone", "extent_tau": 1, "extent_x": 2}


@pytest.mark.parametrize("config", [
    {"net": {**_CONE_1X2, "cell_dim": "x"}},
    {"net": {**_CONE_1X2, "cell_dim": 1}},
    {"net": {"kind": "full", "extent_tau": 1, "n_cells": "a"}},
    {"net": {"kind": "full", "extent_tau": 2, "extent_x": 2, "n_cells": 5}},
    {"net": _CONE_1X2, "initial_state": {"kind": "diagonal", "weights": [0.5, 0.3, 0.2]}},
    {"scenario": "recording-demo", "mode": "record", "record": {"point": "ab"}},
    {"scenario": "recording-demo", "mode": "record", "record": {"point": [3, 0]}},
    {"scenario": "epr", "mode": "sample", "samples": True},
    {"scenario": "epr", "mode": "sample", "samples": 2.7},
    {"scenario": "epr", "mode": "sample", "seed": True},
    {"scenario": "epr", "mode": "sample", "seed": -1},
    {"scenario": "two-leaf-chain", "scenario_params": {"spectrum": "ab"}},
    {"scenario": "massive-control", "scenario_params": {"extent_tau": 0}},
    {"scenario": "epr", "scenario_params": {"n_dir": [0, 0, 0]}},
    {"net": {**_CONE_1X2, "extnet_x": 3}},
    {"scenario": "recording-demo", "mode": "record", "record": {"quantiy": "transverse"}},
    {"scenario": "recording-demo", "mode": "record", "epsilon": "0.1"},
    {"scenario": "recording-demo", "mode": "record", "epsilon": True},
    {"scenario": "recording-demo", "mode": "record", "epsilon": 1e-9},
    {"scenario": "epr", "mode": "sample", "samples": 2**63},
], ids=["cell-dim-string", "cell-dim-one", "n-cells-string", "n-cells-too-many",
        "state-dim", "point-string", "point-outside", "samples-bool", "samples-float",
        "seed-bool", "seed-negative", "params-string", "params-range", "params-zero-direction",
        "net-key-typo", "record-key-typo", "epsilon-string", "epsilon-bool",
        "epsilon-below-floor", "samples-too-large"])
def test_main_refuses_malformed_configs(tmp_path, capsys, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_config_collects_all_problems():
    with pytest.raises(ConfigError, match="mode.*;.*format"):
        _cfg(scenario="epr", mode="explode", format="yaml")


def test_config_policy_override_applies():
    cfg = _cfg(scenario="epr", policy={"prob_floor": 0.05})
    assert cfg.policy.prob_floor == 0.05
    assert cfg.policy.gap_min == 1e-6  # untouched default


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "epr", "mode": "enumerate"}))
    cfg = load_config(str(path), {"seed": 9})
    assert cfg.scenario == "epr"
    assert cfg.seed == 9


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.json", {})


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path), {})


# ---------------------------------------------------------------------------
# The run driver
# ---------------------------------------------------------------------------

def test_run_enumerate_epr():
    report, timings = run(_cfg(scenario="epr"))
    assert report["tool"] == "eventnet"
    assert report["lattice"]["ambient_dim"] == 4
    assert report["tree"]["n_leaves"] == 4
    for row in report["tree"]["leaves"]:
        assert row["probability"] == pytest.approx(0.25, abs=1e-12)
    assert report["commutation"]["max_norm"] == 0.0
    assert all(item["ok"] for item in report["expected"])
    assert "run" in timings
    # timings stay out of the canonical report
    assert "timings" not in report and "setup" not in report


def test_run_report_bytes_deterministic():
    first = serialize_report(run(_cfg(scenario="epr"))[0])
    second = serialize_report(run(_cfg(scenario="epr"))[0])
    assert first == second


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_nesting_section_bytes_match_a_per_pair_sweep(name):
    cfg = _cfg(scenario=name)
    report, _ = run(cfg)
    net = build_scenario(name, policy=cfg.policy).net
    swept = {**report["nesting"], "pairs": oracles.nesting_pairs_by_sweep(net, cfg.policy)}
    assert serialize_report(report) == serialize_report({**report, "nesting": swept})


def test_run_sample_mode():
    cfg = _cfg(scenario="epr", mode="sample", samples=300, seed=5)
    report, _ = run(cfg)
    rows = report["samples"]["paths"]
    assert sum(r["count"] for r in rows) == 300
    assert report["samples"]["seed"] == 5
    band = oracles.binomial_four_sigma(0.25, 300)
    for r in rows:
        assert abs(r["frequency"] - 0.25) < band
    again, _ = run(_cfg(scenario="epr", mode="sample", samples=300, seed=5))
    assert serialize_report(report) == serialize_report(again)


def test_run_record_mode_default_quantity():
    report, _ = run(_cfg(scenario="recording-demo", mode="record"))
    rec = report["recording"]
    assert rec["quantity"] == "aligned"
    assert rec["passes"] is True
    assert max(rec["alignment_norms"]) < 1e-10
    assert [m[1] for m in rec["matches"]] == [0, 1]


def test_run_record_mode_quantity_override():
    cfg = _cfg(scenario="recording-demo", mode="record",
               record={"quantity": "transverse"})
    report, _ = run(cfg)
    rec = report["recording"]
    assert rec["passes"] is False
    assert rec["alignment_norms"] == pytest.approx([0.5, 0.5], abs=1e-10)


def test_run_record_mode_needs_quantity():
    with pytest.raises(ConfigError, match="record quantity"):
        run(_cfg(scenario="epr", mode="record"))


def test_run_custom_cone_net():
    cfg = _cfg(net={"kind": "cone", "extent_tau": 2, "extent_x": 2})
    report, _ = run(cfg)
    assert report["lattice"]["ambient_dim"] == 16
    assert report["nesting"]["future_pairs"] == 4
    assert report["nesting"]["matches_geometric"] is True
    # the maximally mixed default state sees no events anywhere
    assert report["tree"]["n_leaves"] == 1
    assert "expected" not in report


def test_run_custom_full_net_with_state():
    cfg = _cfg(net={"kind": "full", "extent_tau": 2, "cell_dim": 2},
               initial_state={"kind": "diagonal", "weights": [0.75, 0.25]})
    report, _ = run(cfg)
    assert report["tree"]["n_leaves"] == 2
    assert report["nesting"]["future_pairs"] == 0
    assert report["nesting"]["matches_geometric"] is False


def test_run_large_net_omits_state_matrix():
    cfg = _cfg(net={"kind": "cone", "extent_tau": 3, "extent_x": 3})
    report, _ = run(cfg)
    assert report["lattice"]["ambient_dim"] == 512
    assert report["initial_state"] is None


def test_run_scenario_with_state_override_drops_expected():
    cfg = _cfg(scenario="epr", initial_state={"kind": "maximally-mixed"})
    report, _ = run(cfg)
    assert "expected" not in report
    # uniform state: all four outcomes still 1/4, but now uncorrelated
    for row in report["tree"]["leaves"]:
        assert row["probability"] == pytest.approx(0.25, abs=1e-12)


def test_run_policy_override_prunes_branches():
    net = {"kind": "full", "extent_tau": 1, "cell_dim": 4}
    state = {"kind": "diagonal", "weights": [0.9, 0.06, 0.03, 0.01]}
    report, _ = run(_cfg(net=net, initial_state=state))
    assert report["tree"]["n_leaves"] == 4
    coarse, _ = run(_cfg(net=net, initial_state=state,
                         policy={"prob_floor": 0.05}))
    assert coarse["tree"]["n_leaves"] == 2
    assert coarse["tree"]["pruned_mass"] == pytest.approx(0.04, abs=1e-12)


def test_coarse_policy_refuses_oracle_scenario():
    # the chain scenario guards its closed forms against pruning-scale floors
    with pytest.raises(ConfigError, match="degenerate second-step"):
        run(_cfg(scenario="two-leaf-chain", policy={"prob_floor": 0.05}))


def test_state_from_config_kinds():
    cfg = _cfg(net={"kind": "full", "extent_tau": 1, "cell_dim": 2},
               initial_state={"kind": "vector", "entries": [[0.6, 0.0], [0.8, 0.0]]})
    report, _ = run(cfg)
    rho = np.array([[complex(re, im) for re, im in row]
                    for row in report["initial_state"]])
    assert rho[0, 0] == pytest.approx(0.36)
    assert rho[0, 1] == pytest.approx(0.48)


def test_state_from_config_rejects_garbage():
    with pytest.raises(ConfigError, match="initial_state"):
        run(_cfg(net={"kind": "full", "extent_tau": 1, "cell_dim": 2},
                 initial_state={"kind": "diagonal", "weights": [2.0, -1.0]}))
    with pytest.raises(ConfigError, match="not recognized"):
        run(_cfg(net={"kind": "full", "extent_tau": 1, "cell_dim": 2},
                 initial_state={"kind": "thermal"}))


def test_net_from_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="net kind"):
        run(_cfg(net={"kind": "mesh", "extent_tau": 1}))


def test_detection_row_reports_the_largest_event_dim():
    # 2x1 cone, cell_dim 3: the point (0, 0) sees all of rho, nine rank-one
    # outcomes; (1, 0) sees one cell of each outcome's eigenvector.  The
    # lightest eigenvector has Schmidt spectrum (0.5, 0.25, 0.25), so its
    # three children at (1, 0) carry two outcomes; every other eigenvector
    # is generic and its children carry three.
    rng = np.random.default_rng(7)
    lightest = np.zeros(9, dtype=complex)
    lightest[[0, 4, 8]] = np.sqrt([0.5, 0.25, 0.25])
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    g[:, 0] = lightest
    q, _ = np.linalg.qr(g)
    weights = np.array([0.03, 0.2, 0.17, 0.15, 0.13, 0.11, 0.09, 0.07, 0.05])
    rho = (q * weights) @ q.conj().T
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    report, _ = run(_cfg(net={"kind": "cone", "extent_tau": 2, "extent_x": 1, "cell_dim": 3},
                         initial_state={"kind": "matrix", "entries": entries}))
    rows = {tuple(row["point"]): row for row in report["detections"]}
    assert (rows[(0, 0)]["nodes"], rows[(0, 0)]["event_dim"]) == (9, 9)
    assert (rows[(1, 0)]["nodes"], rows[(1, 0)]["event_dim"]) == (26, 3)
    dims = sorted(child["event_dim"] for top in report["tree"]["root"]["children"]
                  for child in top["children"])
    assert dims == [2] * 2 + [3] * 24


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_report_sections_hold_their_records_fields():
    record, _ = run(_cfg(scenario="recording-demo", mode="record"))
    assert set(record["recording"]) == _field_names(RecordingReport)
    assert set(record["config"]) == _field_names(RunConfig) - {"out", "policy"}
    sample, _ = run(_cfg(scenario="two-leaf-chain", mode="sample", samples=50, seed=2))
    assert sample["expected"]
    for row in sample["expected"]:
        assert set(row) == _field_names(EvaluatedExpectation)


def _seeded_cone(seed):
    net = build_tensor_net(CausalLattice(2, 2), 2)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((net.dim, net.dim)) + 1j * rng.standard_normal((net.dim, net.dim))
    rho = g @ g.conj().T
    return net, State(rho / np.trace(rho).real)


def test_tree_section_agrees_with_the_tree():
    path = Path(__file__).parent / "configs" / "cone-2x2.json"
    cfg = load_config(str(path), {})
    report, _ = run(cfg)
    net = build_tensor_net(CausalLattice(2, 2), 2)
    rho = [[complex(re, im) for re, im in row] for row in cfg.initial_state["entries"]]
    tree = enumerate_tree(net, foliate(net.lattice), State(rho))
    rows = [{"path": [[e.point.tau, e.point.x, e.label] for e in events], "probability": prob}
            for events, prob in tree.leaf_paths()]
    rows.sort(key=lambda r: json.dumps(r["path"]))
    assert report["tree"]["leaves"] == rows
    assert report["tree"]["n_leaves"] == len(tree.leaves())
    # the section read off the rows is the one a walk of tree.root's objects gives
    sc = epr_scenario()
    epr = enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed)
    assert all(isinstance(e.label, str) for events, _ in epr.leaf_paths() for e in events)
    cone, initial = _seeded_cone(0)
    dead = enumerate_tree(cone, foliate(cone.lattice), initial,
                          policy=NumericPolicy(prob_floor=0.01))
    assert any(leaf.children_prob_sum is not None for leaf in dead.leaves())
    cone, initial = _seeded_cone(5)
    gated = enumerate_tree(cone, foliate(cone.lattice), initial,
                           policy=NumericPolicy(prob_floor=1e-3),
                           propagators={1: random_unitary(cone.dim, np.random.default_rng(8))})
    for case in (tree, epr, dead, gated):
        section, detections = _tree_section(case)
        walked = oracles.tree_section_by_walk(case)
        assert (section, detections) == walked
        assert (serialize_report({"tree": section, "detections": detections})
                == serialize_report({"tree": walked[0], "detections": walked[1]}))


def test_enumerate_run_builds_no_node_objects(monkeypatch):
    events, nodes = [], []
    from_isometry = ActualEvent.from_isometry.__func__
    node_init = BranchNode.__init__

    def counted_event(cls, *args, **kwargs):
        events.append(1)
        return from_isometry(cls, *args, **kwargs)

    def counted_node(self, *args, **kwargs):
        nodes.append(1)
        node_init(self, *args, **kwargs)

    monkeypatch.setattr(ActualEvent, "from_isometry", classmethod(counted_event))
    monkeypatch.setattr(BranchNode, "__init__", counted_node)
    report, _ = run(load_config(str(Path(__file__).parent / "configs" / "cone-2x2.json"),
                                {"mode": "enumerate"}))
    assert report["tree"]["n_leaves"] > 1
    assert events == [] and nodes == []


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).parent / "configs"


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_serialized_scenario_reports_equal_the_json_encoding(name):
    modes = ["enumerate", "sample"]
    if "default_quantity" in build_scenario(name).params:
        modes.append("record")
    for mode in modes:
        report, _ = run(_cfg(scenario=name, mode=mode, seed=1))
        assert serialize_report(report) == oracles.serialize_report_by_json(report)


@pytest.mark.parametrize("config, mode", [("cone-2x2", "enumerate"), ("cone-2x2", "sample"),
                                          ("record-tilted", None), ("record-transverse", None)])
def test_serialized_config_reports_equal_the_json_encoding(config, mode):
    report, _ = run(load_config(str(CONFIGS / f"{config}.json"), {"mode": mode}))
    assert serialize_report(report) == oracles.serialize_report_by_json(report)


class _Pair(NamedTuple):
    first: object
    second: object


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, math.nan, math.inf, -math.inf,
                     np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf)]),
    st.text(), st.sampled_from(["", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", '"\\/\t']),
)
_JSON_LIKE = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.builds(_Pair, inner, inner),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_LIKE)
def test_serialize_report_equals_the_json_encoding(value):
    assert serialize_report(value) == oracles.serialize_report_by_json(value)


def _nested(flat, shape):
    for n in reversed(shape[1:]):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat


@st.composite
def _float_arrays(draw):
    """Regular nested lists of finite floats, 1 to 3 levels deep, of 2 to 4 rows each."""
    shape = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    size = math.prod(shape)
    flat = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=size, max_size=size))
    return _nested(flat, shape)


@settings(max_examples=200, deadline=None)
@given(array=_float_arrays(), other=_float_arrays())
def test_serialize_report_writes_float_arrays_as_json_does(array, other):
    assert _Writer()._float_array(array, 0) is not None  # written in one step
    report = {"a": array, "b": {"c": [array, other]}, "d": other}
    assert serialize_report(report) == oracles.serialize_report_by_json(report)


@pytest.mark.parametrize("array", [
    [[0.5, 0.25], [1.0, np.float64(2.0)]],
    [[0.5, 0.25], [1.0, 2]],
    [[0.5, 0.25], [True, 2.0]],
    [[0.5, math.nan], [1.0, 2.0]],
    [[0.5, 0.25], [math.inf, 2.0]],
    [[0.5, -math.inf], [1.0, 2.0]],
    [[0.5, 0.25], [1.0]],
    [[0.5, 0.25], []],
    [[0.5, 0.25], [[1.0, 2.0], 3.0]],
    [(0.5, 0.25), (1.0, 2.0)],
], ids=["np-float64", "int", "bool", "nan", "inf", "minus-inf", "ragged", "empty-row",
        "mixed-depth", "tuple-rows"])
def test_serialize_report_writes_other_arrays_by_the_general_path(array):
    assert _Writer()._float_array(array, 0) is None
    report = {"a": array, "b": [array, {"c": array}]}
    assert serialize_report(report) == oracles.serialize_report_by_json(report)


def test_serialize_report_tells_a_zero_from_a_negative_zero():
    # equal as tuples, so only a key exact to the bit keeps their texts apart
    report = {"a": [[0.0, 1.5], [2.5, 0.0]], "b": [[-0.0, 1.5], [2.5, 0.0]]}
    text = serialize_report(report)
    assert text == oracles.serialize_report_by_json(report)
    assert "-0.0" in text


def test_serialize_report_handles_deep_nesting():
    # 400 levels of containers, shaped like a tree section: a node dict, then its children
    node = {"children": [], "cum_prob": 0.5}
    for depth in range(200):
        node = {"children": [node, []], "cum_prob": 0.5 ** depth, "label": depth}
    assert serialize_report(node) == oracles.serialize_report_by_json(node)


@pytest.mark.parametrize("value", [{1: "one"}, {"a": {(0, 1): 2}}, {"a": object()},
                                   {"a": [1, {2, 3}]}, {"a": 1j}, {"a": b"bytes"},
                                   {"a": np.int64(1)}])
def test_serialize_report_refuses_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        serialize_report(value)


def test_serialize_parse_roundtrip():
    report, _ = run(_cfg(scenario="epr"))
    assert parse_report(serialize_report(report)) == report


def test_csv_tree_output():
    report, _ = run(_cfg(scenario="epr"))
    text = emit_report(report, "csv", None)
    lines = text.strip().split("\n")
    assert lines[0] == "path,probability"
    assert len(lines) == 5
    for line in lines[1:]:
        path, prob = line.rsplit(",", 1)
        assert float(prob) == pytest.approx(0.25, abs=1e-12)
        assert "0,0=" in path and "0,1=" in path


def test_csv_recording_output():
    report, _ = run(_cfg(scenario="recording-demo", mode="record"))
    text = emit_report(report, "csv", None)
    lines = text.strip().split("\n")
    assert lines[0].startswith("k,eigenvalue,weight")
    assert len(lines) == 3


def test_emit_to_file(tmp_path):
    report, _ = run(_cfg(scenario="epr"))
    out = tmp_path / "report.json"
    result = emit_report(report, "structured", str(out))
    assert result is None
    assert parse_report(out.read_text()) == report


# ---------------------------------------------------------------------------
# The executable entry point
# ---------------------------------------------------------------------------

def test_main_success(capsys):
    rc = main(["--scenario", "epr"])
    captured = capsys.readouterr()
    assert rc == 0
    report = parse_report(captured.out)
    assert report["tree"]["n_leaves"] == 4
    assert "timing" in captured.err


def test_main_writes_file(tmp_path, capsys):
    out = tmp_path / "epr.json"
    rc = main(["--scenario", "epr", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert parse_report(out.read_text())["tree"]["n_leaves"] == 4


def test_main_refuses_an_unwritable_out_path(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    rc = main(["--scenario", "epr", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: cannot write report to {out}" in err
    assert "Traceback" not in err


def test_main_config_error_exit_code(capsys):
    rc = main(["--config", "/nonexistent/run.json"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("net", [
    {"kind": "cone", "extent_tau": 4, "extent_x": 4},
    # 2**14285 has more digits than Python writes for an int by default
    {"kind": "cone", "extent_tau": 120, "extent_x": 120},
    {"kind": "full", "extent_tau": 120, "extent_x": 120, "n_cells": 14285},
], ids=["cone-4x4", "cone-120x120", "full-14285-cells"])
def test_main_cap_exceeded_exit_code(tmp_path, capsys, net):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"net": net}))
    rc = main(["--config", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_main_sample_mode_applies_branch_cap(tmp_path, capsys):
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({"scenario": "epr", "mode": "sample",
                                "policy": {"branch_cap": 1}}))
    rc = main(["--config", str(path)])
    assert rc == 3
    assert "branch cap" in capsys.readouterr().err


def test_main_numeric_error_exit_code(tmp_path, capsys):
    # recording on a pure state: no event happens, resolution failure
    path = tmp_path / "pure.json"
    path.write_text(json.dumps({
        "scenario": "recording-demo",
        "mode": "record",
        "initial_state": {"kind": "vector", "entries": [[1.0, 0.0], [0.0, 0.0]]},
    }))
    rc = main(["--config", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_seed_flag_overrides_config(tmp_path):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"scenario": "epr", "mode": "sample",
                                "samples": 50, "seed": 1}))
    rc = main(["--config", str(path), "--seed", "2", "--out",
               str(tmp_path / "a.json")])
    assert rc == 0
    report = parse_report((tmp_path / "a.json").read_text())
    assert report["samples"]["seed"] == 2
