"""Tests for configuration loading, the run driver, and report emission."""

import binascii
import copy
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

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
from eventnet import cli, histories
from eventnet.cli import (
    RunConfig,
    _state_from_config,
    _tree_section,
    emit_report,
    load_config,
    main,
    parse_report,
    run,
    serialize_report,
)
from eventnet.linalg import random_unitary
from eventnet.policy import DEFAULT_POLICY, NumericPolicy

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


def test_main_branch_cap_bounds_the_enumerated_tree(tmp_path, capsys):
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({"scenario": "two-leaf-chain", "mode": "enumerate",
                                "policy": {"branch_cap": 4}}))
    assert main(["--config", str(path)]) == 3
    assert "branch cap" in capsys.readouterr().err


def test_main_sample_expected_block_stays_under_the_branch_cap(tmp_path, capsys):
    # the expected block reads the draws, so a sample under the cap enumerates nothing
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({"scenario": "two-leaf-chain", "mode": "sample", "samples": 3,
                                "seed": 1, "policy": {"branch_cap": 4}}))
    assert main(["--config", str(path)]) == 0
    rows = parse_report(capsys.readouterr().out)["expected"]
    assert {row["name"] for row in rows} == {f"leaf_prob[{i},{j}]" for i in range(4)
                                             for j in range(2)} | {"total_prob"}


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
    {"scenario": "epr", "mode": "record", "record": {"quantity": "left-spin", "point": [0, 1]}},
    {"scenario": "recording-demo", "scenario_params": {"spectrum": [1.0]}},
    {"scenario": "two-leaf-chain", "scenario_params": {"spectrum": [0.6, 0.4]}},
    {"scenario": "recording-demo", "scenario_params": {"tilt": math.nan}},
    {"scenario": "recording-demo", "mode": "record", "scenario_params": {"tilt": math.inf}},
    {"scenario": 3},
    {"scenario": "epr", "scenario_params": []},
    {"net": []},
    {"scenario": "recording-demo", "mode": "record", "record": 5},
    {"scenario": "epr", "initial_state": []},
    {"scenario": "epr", "out": 3},
    {"scenario": "epr", "policy": []},
    [],
    {"scenario": "massive-control", "mode": "record"},
    # raw file bytes: a config saved as UTF-16, and an integer of more digits
    # than Python converts (4300)
    '{"scenario": "epr", "seed": 1}'.encode("utf-16"),
    b'{"scenario": "epr", "mode": "sample", "samples": 1' + b"0" * 5000 + b"}",
    # a scenario parameter of 401 digits, beyond float range
    {"scenario": "epr", "scenario_params": {"n_dir": [10**400, 0, 0]}},
    {"scenario": "epr", "scenario_params": {"n_prime_dir": [10**400, 0, 0]}},
    {"scenario": "epr-overlap", "scenario_params": {"n_dir": [0, 0, 10**400]}},
    {"scenario": "epr-overlap", "scenario_params": {"n_prime_dir": [0, 0, 10**400]}},
    {"scenario": "massive-control", "scenario_params": {"spectrum": [10**400, 1]}},
    {"scenario": "two-leaf-chain", "scenario_params": {"spectrum": [10**400, 0.3, 0.2, 0.1]}},
    {"scenario": "recording-demo", "scenario_params": {"spectrum": [10**400, 1]}},
    # an initial_state key its kind does not read
    {"net": _CONE_1X2, "initial_state": {"kind": "maximally-mixed", "weights": [1, 0, 0, 0]}},
    {"net": _CONE_1X2,
     "initial_state": {"kind": "diagonal", "weights": [0.4, 0.3, 0.2, 0.1], "seed": 3}},
    # spectra whose levels the detection merges (within gap_min) or drops
    {"scenario": "massive-control", "scenario_params": {"spectrum": [0.5, 0.5]}},
    {"scenario": "massive-control", "scenario_params": {"spectrum": [0.9999999999, 1e-10]}},
    {"scenario": "recording-demo", "scenario_params": {"spectrum": [0.5, 0.5]}},
    {"scenario": "recording-demo", "scenario_params": {"spectrum": [0.99, 0.01]}},
], ids=["cell-dim-string", "cell-dim-one", "n-cells-string", "n-cells-too-many",
        "state-dim", "point-string", "point-outside", "samples-bool", "samples-float",
        "seed-bool", "seed-negative", "params-string", "params-range", "params-zero-direction",
        "net-key-typo", "record-key-typo", "epsilon-string", "epsilon-bool",
        "epsilon-below-floor", "samples-too-large", "record-no-representative",
        "demo-spectrum-one-level", "chain-spectrum-two-levels", "demo-tilt-nan",
        "demo-tilt-infinity", "scenario-number", "params-list", "net-list", "record-number",
        "state-list", "out-number", "policy-list", "root-list", "record-without-quantities",
        "text-utf16", "samples-5001-digits", "epr-n-dir-overflow", "epr-n-prime-dir-overflow",
        "overlap-n-dir-overflow", "overlap-n-prime-dir-overflow", "control-spectrum-overflow",
        "chain-spectrum-overflow", "demo-spectrum-overflow", "mixed-state-weights",
        "diagonal-state-seed", "control-spectrum-equal", "control-spectrum-below-floor",
        "demo-spectrum-equal", "demo-spectrum-below-resolution"])
def test_main_refuses_malformed_configs(tmp_path, capsys, config):
    path = tmp_path / "bad.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["trace_floor", "tol_basis", "tol_gns_null", "max_retries"])
def test_main_refuses_a_removed_policy_field(tmp_path, capsys, name):
    # prob_floor owns the support-trace floor, tol_closure the basis and GNS cutoffs,
    # and minimal projections are found without retries
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"scenario": "epr", "policy": {name: 1e-9}}))
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: policy: unknown tolerances ['{name}']\n"


def test_initial_state_keys_follow_its_kind():
    for state in ({"kind": "maximally-mixed"}, {"kind": "diagonal", "weights": [0.5, 0.5]},
                  {"kind": "vector", "entries": [[1, 0], [0, 0]]},
                  {"kind": "matrix", "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}):
        assert _cfg(scenario="recording-demo", initial_state=state).initial_state == state
    with pytest.raises(ConfigError, match=r"unknown keys \['entries'\] for kind 'diagonal'"):
        _cfg(scenario="recording-demo",
             initial_state={"kind": "diagonal", "weights": [0.5, 0.5], "entries": []})


def test_main_runs_a_large_recording_tilt_with_its_closed_form(tmp_path, capsys):
    # a tilt of 0.11 has alignment norm sin(0.11)/2 = 0.0549, above the resolution 0.05
    path = tmp_path / "tilt.json"
    path.write_text(json.dumps({"scenario": "recording-demo", "mode": "record",
                                "record": {"quantity": "tilted"},
                                "scenario_params": {"tilt": 0.11}}))
    assert main(["--config", str(path)]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["recording"]["passes"] is False
    rows = {row["name"]: row for row in report["expected"]}
    assert rows["tilted_passes"]["expected"] == 0.0 and rows["tilted_passes"]["ok"]
    assert all(row["ok"] for row in report["expected"])


def test_recording_demo_is_evaluated_at_the_runs_epsilon(capsys):
    # at epsilon 0.2 the norm 0.0549 of a 0.11 tilt passes, and the expected
    # block, built and evaluated at the run's epsilon, expects that verdict
    path = Path(__file__).parent / "configs" / "record-tilted-eps.json"
    assert main(["--config", str(path)]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["recording"]["passes"] is True and report["recording"]["epsilon"] == 0.2
    rows = {row["name"]: row for row in report["expected"]}
    assert (rows["tilted_passes"]["expected"], rows["tilted_passes"]["actual"]) == (1.0, 1.0)
    assert all(row["ok"] for row in report["expected"])
    # a spectrum level below the run's epsilon is no resolved outcome there
    with pytest.raises(ConfigError, match="spectrum"):
        run(_cfg(scenario="recording-demo", mode="record", epsilon=0.3))


def test_main_refuses_a_full_net_on_a_vast_lattice(capsys, monkeypatch):
    # refused from the extents alone: listing the lattice's points would raise
    def unlisted(lattice):
        raise AssertionError("the lattice's points were listed")

    monkeypatch.setattr(CausalLattice, "points", unlisted)
    path = Path(__file__).parent / "configs" / "huge-full.json"
    assert main(["--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error: full net of 100000x100000 lattice points exceeds the cap 4096" in err


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


def _assert_echoes_bits(echo, given):
    """A report's ``config.initial_state`` holds the config's state, bit for bit.

    The kind is echoed as given, and each number array as its shape and
    its little-endian float64 bytes in base64.
    """
    assert echo.keys() == given.keys() and echo["kind"] == given["kind"]
    for key in given.keys() - {"kind"}:
        want = np.array(given[key], dtype=float)
        got = np.frombuffer(binascii.a2b_base64(echo[key]["float64_le"]), "<f8")
        assert echo[key]["shape"] == list(want.shape)
        assert got.reshape(want.shape).tobytes() == want.tobytes()


def test_report_holds_the_initial_state_once():
    # a config-given state is in the config echo only, with its numbers as
    # their float64 bits; a scenario's state follows from the echoed scenario
    # and is not written
    entries = [[[0.5, 0.0], [0.25, -0.125]], [[0.25, 0.125], [0.5, 0.0]]]
    configs = [
        {"net": {"kind": "full", "extent_tau": 1, "cell_dim": 2},
         "initial_state": {"kind": "matrix", "entries": entries}},
        {"scenario": "epr"},
        {"net": {"kind": "cone", "extent_tau": 3, "extent_x": 3},
         "initial_state": {"kind": "maximally-mixed"}},
    ]
    for config in configs:
        given = copy.deepcopy(config.get("initial_state"))
        report = parse_report(serialize_report(run(_cfg(**config))[0]))
        assert "initial_state" not in report
        if given is None or given["kind"] == "maximally-mixed":
            assert report["config"]["initial_state"] == given
        else:
            _assert_echoes_bits(report["config"]["initial_state"], given)
    assert report["lattice"]["ambient_dim"] == 512


def test_config_numbers_echo_as_their_float64_bits(tmp_path):
    # -0.0, an int (echoed as its float) and a subnormal, through a config
    # file, for a net and for a scenario whose state the config overrides
    net = {"kind": "full", "extent_tau": 1, "cell_dim": 2}
    tiny = 5e-324
    configs = [
        {"net": net, "initial_state": {"kind": "matrix", "entries":
                                       [[[1, 0], [tiny, -0.0]], [[tiny, 0.0], [0, -0.0]]]}},
        {"net": net, "initial_state": {"kind": "vector", "entries": [[1, -0.0], [tiny, 0]]}},
        {"net": {**net, "cell_dim": 4},
         "initial_state": {"kind": "diagonal", "weights": [1, tiny, -0.0, 0]}},
        {"scenario": "recording-demo",
         "initial_state": {"kind": "vector", "entries": [[-0.0, tiny], [1, 0]]}},
        {"scenario": "epr", "initial_state": {"kind": "diagonal", "weights": [0, -0.0, tiny, 1]}},
    ]
    for i, config in enumerate(configs):
        path, out = tmp_path / f"{i}.json", tmp_path / f"{i}-report.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "--out", str(out)]) == 0
        given = json.loads(path.read_text())["initial_state"]
        text = out.read_text()
        _assert_echoes_bits(parse_report(text)["config"]["initial_state"], given)
        assert json.dumps(parse_report(text), sort_keys=True) + "\n" == text


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
    rho = _state_from_config({"kind": "vector", "entries": [[0.6, 0.0], [0.8, 0.0]]},
                             2, DEFAULT_POLICY)[0].rho
    assert rho[0, 0] == pytest.approx(0.36)
    assert rho[0, 1] == pytest.approx(0.48)
    entries = [[[0.5, 0.0], [0.25, -0.125]], [[0.25, 0.125], [0.5, 0.0]]]
    rho = _state_from_config({"kind": "matrix", "entries": entries}, 2, DEFAULT_POLICY)[0].rho
    # each pair read as [re, im], row by row
    assert rho.tolist() == [[0.5, 0.25 - 0.125j], [0.25 + 0.125j, 0.5]]


def test_state_from_config_rejects_garbage():
    with pytest.raises(ConfigError, match="initial_state"):
        run(_cfg(net={"kind": "full", "extent_tau": 1, "cell_dim": 2},
                 initial_state={"kind": "diagonal", "weights": [2.0, -1.0]}))
    with pytest.raises(ConfigError, match="not recognized"):
        run(_cfg(net={"kind": "full", "extent_tau": 1, "cell_dim": 2},
                 initial_state={"kind": "thermal"}))
    # every entry a pair of two finite real numbers, every weight one; no bools
    for state in ({"kind": "vector", "entries": [[0.6, 0, 7], [0.8, 0]]},
                  {"kind": "vector", "entries": [[0.6, 0, 7], [0.8, 0, 0]]},
                  {"kind": "vector", "entries": [[True, 0], [0, 0]]},
                  {"kind": "vector", "entries": [["0.6", 0], [0.8, 0]]},
                  {"kind": "vector", "entries": [0.6, 0.8]},
                  {"kind": "matrix", "entries": [[[0.5, 0, 7], [0, 0]], [[0, 0], [0.5, 0]]]},
                  {"kind": "matrix", "entries": [[[0.5, 0], [0, 0]], [[0, 0], [True, 0]]]},
                  {"kind": "matrix", "entries": [[[0.5, 0], [0, 0]], [[0.5, 0]]]},
                  {"kind": "vector", "entries": [[math.nan, 0], [1, 0]]},
                  {"kind": "diagonal", "weights": [True, False]},
                  {"kind": "diagonal", "weights": [0.5, None]},
                  {"kind": "diagonal", "weights": [math.inf, 0.5]}):
        with pytest.raises(ConfigError, match="initial_state is malformed"):
            run(_cfg(net={"kind": "full", "extent_tau": 1, "cell_dim": 2}, initial_state=state))


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
    return set(cls._fields)


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


_MANY_OUTCOMES = Path(__file__).parent / "configs" / "cone-2x3-many-outcomes.json"


def _many_outcomes(overrides):
    """The config of a 2x3 cone whose point (0, 1) has 16 outcomes, its net and its state.

    Outcome 10 sorts before outcome 2 as json text, so a leaf order read
    off path texts is not the tree's.
    """
    cfg = load_config(str(_MANY_OUTCOMES), overrides)
    return cfg, build_tensor_net(CausalLattice(2, 3), 2), State.diagonal(
        cfg.initial_state["weights"])


def _csv_path(steps):
    return "|".join(f"{t},{x}={lbl}" for t, x, lbl in steps)


def test_report_leaves_and_csv_rows_follow_leaf_steps():
    cfg, net, initial = _many_outcomes({})
    report, _ = run(cfg)
    tree = enumerate_tree(net, foliate(net.lattice), initial)
    assert max(tree.spectrum_dims) > 10
    leaves = [{"path": [list(step) for step in steps], "probability": prob}
              for steps, prob in tree.leaf_steps()]
    assert report["tree"]["leaves"] == leaves
    assert leaves != sorted(leaves, key=lambda r: json.dumps(r["path"]))
    header, *rows = csv.reader(io.StringIO(emit_report(report, "csv", None)))
    assert rows == [[_csv_path(steps), repr(prob)] for steps, prob in tree.leaf_steps()]
    assert parse_report(serialize_report(report)) == report


def test_sample_rows_follow_the_summary_counts():
    cfg, net, initial = _many_outcomes({"mode": "sample"})
    report, _ = run(cfg)
    summary = histories.sample_paths(net, foliate(net.lattice), initial, cfg.samples, cfg.seed)
    rows = [{"path": [list(step) for step in steps], "count": count,
             "frequency": count / cfg.samples} for steps, count in summary.counts.items()]
    assert report["samples"]["paths"] == rows
    assert rows != sorted(rows, key=lambda r: json.dumps(r["path"]))
    header, *lines = csv.reader(io.StringIO(emit_report(report, "csv", None)))
    assert lines == [[_csv_path(steps), str(count), repr(count / cfg.samples)]
                     for steps, count in summary.counts.items()]


def test_tree_section_agrees_with_the_tree():
    path = Path(__file__).parent / "configs" / "cone-2x2.json"
    cfg = load_config(str(path), {})
    report, _ = run(cfg)
    net = build_tensor_net(CausalLattice(2, 2), 2)
    rho = [[complex(re, im) for re, im in row] for row in cfg.initial_state["entries"]]
    tree = enumerate_tree(net, foliate(net.lattice), State(rho))
    rows = [{"path": [[e.point.tau, e.point.x, e.label] for e in events], "probability": prob}
            for events, prob in tree.leaf_paths()]
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
    _, cone, initial = _many_outcomes({})
    many = enumerate_tree(cone, foliate(cone.lattice), initial)
    for case in (tree, epr, dead, gated, many):
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


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_scenario_runs_build_no_node_objects(monkeypatch, name):
    # the expected block reads the rows or the sample, like the rest of the report
    def refuse(*args, **kwargs):
        raise AssertionError("a CLI run built a node object")

    monkeypatch.setattr(ActualEvent, "from_isometry", classmethod(refuse))
    monkeypatch.setattr(BranchNode, "__init__", refuse)
    for mode in ("enumerate", "sample"):
        report, _ = run(_cfg(scenario=name, mode=mode, seed=1))
        assert report["expected"]


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_each_scenario_run_grows_one_tree(monkeypatch, name):
    grown = []
    grow = histories._grow

    def counted(*args, **kwargs):
        grown.append(1)
        return grow(*args, **kwargs)

    monkeypatch.setattr(histories, "_grow", counted)
    for mode in ("enumerate", "sample"):
        grown.clear()
        report, _ = run(_cfg(scenario=name, mode=mode, seed=1))
        assert report["expected"] and len(grown) == 1, mode
    if "default_quantity" in build_scenario(name).params:
        grown.clear()
        report, _ = run(_cfg(scenario=name, mode="record", seed=1))
        assert report["expected"] and grown == []


def test_sample_expected_rows_hold_the_draws():
    n = 2000
    report, _ = run(_cfg(scenario="two-leaf-chain", mode="sample", samples=n, seed=3))
    freq = {",".join(str(label) for *_, label in row["path"]): row["frequency"]
            for row in report["samples"]["paths"]}
    declared = {exp.name: exp for exp in build_scenario("two-leaf-chain").expected}
    rows = {row["name"]: row for row in report["expected"]}
    assert set(rows) == set(declared) - {"n_leaves"}
    for name, row in rows.items():
        assert row["ok"], row
        if name.startswith("leaf_prob["):
            p = declared[name].value
            assert row["tol"] == max(1e-12, oracles.binomial_four_sigma(p, n))
            assert row["actual"] == freq.get(name[len("leaf_prob["):-1], 0.0)
    assert rows["total_prob"]["tol"] == 1e-12
    assert rows["total_prob"]["actual"] == pytest.approx(1.0, abs=1e-12)
    # every count of the whole tree is left out
    control, _ = run(_cfg(scenario="massive-control", mode="sample", seed=3))
    assert [row["name"] for row in control["expected"]] == ["derived_future_pairs"]


def test_sample_expected_zero_probability_row_stays_exact():
    report, _ = run(_cfg(scenario="epr", mode="sample", samples=500, seed=4,
                         scenario_params={"n_prime_dir": [0.0, 0.0, 1.0]}))
    freq = {"".join(label for *_, label in row["path"]): row["frequency"]
            for row in report["samples"]["paths"]}
    rows = {row["name"]: row for row in report["expected"]}
    for pair in ("++", "--"):
        row = rows[f"joint_prob[{pair}]"]
        assert (row["expected"], row["actual"], row["tol"], row["ok"]) == (0.0, 0.0, 1e-12, True)
    for pair in ("+-", "-+"):
        row = rows[f"joint_prob[{pair}]"]
        assert row["actual"] == freq[pair]
        assert row["tol"] == oracles.binomial_four_sigma(0.5, 500) and row["ok"]
    # closed-form rows read no draw
    assert rows["conditioned_prob"]["tol"] == rows["unconditioned_prob"]["tol"] == 1e-12


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).parent / "configs"


_REPORT_SOURCES = [pytest.param({"scenario": name}, id=name)
                   for name in sorted(SCENARIO_BUILDERS)] + [
    pytest.param({"config": config, "mode": mode}, id=f"{config}-{mode}")
    for config, mode in [("cone-2x2", "enumerate"), ("cone-2x2", "sample"),
                         ("record-tilted", None), ("record-transverse", None)]]


@pytest.mark.parametrize("source", _REPORT_SOURCES)
def test_report_bytes_are_their_own_canonical_encoding(source):
    # a scenario in every mode it runs at seed 1, or one config file; the CI smoke rule
    if "scenario" in source:
        name = source["scenario"]
        modes = ["enumerate", "sample"]
        if "default_quantity" in build_scenario(name).params:
            modes.append("record")
        reports = [run(_cfg(scenario=name, mode=mode, seed=1))[0] for mode in modes]
    else:
        path = str(CONFIGS / f"{source['config']}.json")
        reports = [run(load_config(path, {"mode": source["mode"]}))[0]]
    for report in reports:
        text = serialize_report(report)
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        # serialize_report skips the encoder's cycle check; with it, a report
        # holding a cycle fails here with ValueError instead of recursing there
        assert text == json.dumps(report, sort_keys=True) + "\n"


def test_serialize_report_writes_one_ascii_line():
    report = {"b": [1.5, -0.0, None, True], "a": {"z": math.nan, "y": -math.inf},
              "label": "\u00e9\u2028\n"}
    assert serialize_report(report) == ('{"a": {"y": -Infinity, "z": NaN}, '
                                        '"b": [1.5, -0.0, null, true], '
                                        '"label": "\\u00e9\\u2028\\n"}\n')


# a dict with both str and int keys cannot be written with its keys sorted
@pytest.mark.parametrize("value", [{"a": 1, 1: "one"}, {"a": {(0, 1): 2}}, {"a": object()},
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


def test_csv_sample_output():
    report, _ = run(_cfg(scenario="two-leaf-chain", mode="sample", samples=200, seed=1))
    header, *rows = csv.reader(io.StringIO(emit_report(report, "csv", None)))
    assert header == ["path", "count", "frequency"]
    paths = report["samples"]["paths"]
    assert len(paths) > 1 and len(rows) == len(paths)
    counts = []
    for (path, count, freq), row in zip(rows, paths):
        assert path == "|".join(f"{t},{x}={lbl}" for t, x, lbl in row["path"])
        assert float(freq) == int(count) / 200
        counts.append(int(count))
    assert sum(counts) == 200


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


def test_main_refuses_a_policy_number_beyond_float_range(capsys):
    # a 401-digit integer: math.isfinite cannot convert it to a float
    path = Path(__file__).parent / "configs" / "bad-policy-overflow.json"
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: policy: tol_closure: ")
    assert "Traceback" not in err
    with pytest.raises(ValueError, match="tol_closure"):
        NumericPolicy(tol_closure=10**400)


def test_main_turns_running_out_of_memory_into_exit_3(monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "run", exhausted)
    assert main(["--scenario", "epr"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--scenario", "epr", "--mode", "bogus"],
    ["--scenario", "epr", "--mode", "sample", "--samples", "x"],
    ["--scenario", "epr", "--seed", "1.5"],
    ["--scenario", "epr", "--frobnicate"],
    ["--scenario", "bogus"],
    ["--scenario", "epr", "--format", "xml"],
    ["--scenario"],
], ids=["mode", "samples-not-int", "seed-not-int", "unknown-flag", "scenario", "format",
        "missing-value"])
def test_main_refuses_bad_flags_with_exit_1(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "usage:" not in err and "Traceback" not in err


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--mode" in capsys.readouterr().out


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


@pytest.mark.parametrize("mode", ["enumerate", "sample"])
def test_main_commutation_abort_exits_2(capsys, mode):
    # epr-overlap's spacelike families share a qubit and do not commute
    path = Path(__file__).parent / "configs" / "abort-epr-overlap.json"
    assert main(["--config", str(path), "--mode", mode, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: spacelike families at Point(tau=0, x=0) and "
                            "Point(tau=0, x=1) fail to commute (norm 5.000e-01)\n")


def test_main_seed_flag_overrides_config(tmp_path):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"scenario": "epr", "mode": "sample",
                                "samples": 50, "seed": 1}))
    rc = main(["--config", str(path), "--seed", "2", "--out",
               str(tmp_path / "a.json")])
    assert rc == 0
    report = parse_report((tmp_path / "a.json").read_text())
    assert report["samples"]["seed"] == 2
