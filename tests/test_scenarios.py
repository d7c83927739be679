"""Tests for the shipped scenarios and their closed-form expectations."""

import dataclasses

import numpy as np
import pytest

from eventnet import (
    CausalLattice,
    ConfigError,
    NumericPolicy,
    Point,
    SCENARIO_BUILDERS,
    State,
    build_full_net,
    build_scenario,
    enumerate_tree,
    epr_scenario,
    evaluate_expected,
    foliate,
    massive_control,
    nonlocality_demo,
    order_independence_check,
    recording_check,
    recording_demo,
    two_leaf_chain,
)

# Leaf probabilities of the default two-leaf chain (seed 7), frozen from a
# standalone eigendecomposition computation: eigenvalues of the rotated
# initial state times the reduced-eigenvector weights on the later cell.
TWO_LEAF_FROZEN = {
    (0, 0): 0.3833717456626933,
    (0, 1): 0.01662825433730655,
    (1, 0): 0.21575033348786796,
    (1, 1): 0.08424966651213196,
    (2, 0): 0.18045849003480563,
    (2, 1): 0.01954150996519428,
    (3, 0): 0.099622181741755,
    (3, 1): 0.00037781825824504956,
}


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_scenario_expectations_all_hold(name):
    scenario = build_scenario(name)
    results = evaluate_expected(scenario)
    assert results, name
    for res in results:
        assert res.ok, (name, res.name, res.expected, res.actual, res.tol)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_expected_values_on_a_given_tree_are_the_enumerated_ones(name):
    # a run hands its own tree over; every value is the one enumeration gives, bit for bit
    scenario = build_scenario(name)
    tree = enumerate_tree(scenario.net, scenario.foliation, scenario.initial,
                          imposed=scenario.imposed)
    alone, given = evaluate_expected(scenario), evaluate_expected(scenario, tree)
    assert [repr(dataclasses.astuple(r)) for r in given] == [
        repr(dataclasses.astuple(r)) for r in alone]


def test_two_leaf_chain_matches_frozen_literals():
    sc = two_leaf_chain()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)
    got = {tuple(e.label for e in events): prob
           for events, prob in tree.leaf_paths()}
    assert set(got) == set(TWO_LEAF_FROZEN)
    for key, frozen in TWO_LEAF_FROZEN.items():
        assert got[key] == pytest.approx(frozen, abs=1e-12), key
    # the builder's own expectations agree with the frozen constants
    declared = {exp.name: exp.value for exp in sc.expected}
    for (i, j), frozen in TWO_LEAF_FROZEN.items():
        assert declared[f"leaf_prob[{i},{j}]"] == pytest.approx(frozen, abs=1e-12)


def test_two_leaf_chain_rejects_bad_spectra():
    with pytest.raises(ConfigError):
        two_leaf_chain(spectrum=(0.1, 0.2, 0.3, 0.4))  # increasing
    with pytest.raises(ConfigError):
        two_leaf_chain(spectrum=(0.4, 0.4, 0.1, 0.1))  # degenerate


def test_epr_aligned_directions():
    sc = epr_scenario(n_prime_dir=(0.0, 0.0, 1.0))  # n' = n = z
    results = {r.name: r for r in evaluate_expected(sc)}
    assert results["joint_prob[++]"].actual == pytest.approx(0.0, abs=1e-12)
    assert results["joint_prob[+-]"].actual == pytest.approx(0.5, abs=1e-12)
    assert results["conditioned_prob"].actual == pytest.approx(0.0, abs=1e-12)
    for res in results.values():
        assert res.ok, res


def test_epr_intermediate_angle():
    theta = np.pi / 3
    sc = epr_scenario(n_prime_dir=(np.sin(theta), 0.0, np.cos(theta)))
    results = {r.name: r for r in evaluate_expected(sc)}
    assert results["joint_prob[++]"].actual == pytest.approx(0.125, abs=1e-12)
    for res in results.values():
        assert res.ok, res


def test_epr_nonlocality_is_in_the_conditioning():
    aligned = epr_scenario(n_prime_dir=(0.0, 0.0, 1.0))
    report = nonlocality_demo(aligned, ("+", "+"))
    assert report.unconditioned == pytest.approx(0.5, abs=1e-12)
    assert report.conditioned == pytest.approx(0.0, abs=1e-12)
    assert report.difference == pytest.approx(0.5, abs=1e-12)


def test_order_independence_distinguishes_the_scenarios():
    assert order_independence_check(epr_scenario()) < 1e-12
    overlap = build_scenario("epr-overlap")
    assert order_independence_check(overlap) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-9)


@pytest.mark.parametrize("n_dir, n_prime_dir", [
    *(((0.0, 0.0, 1.0), (np.sin(theta), 0.0, np.cos(theta)))
      for theta in (0.0, 0.3, 1.0, 1.5707963, np.pi / 2, 2.0, 2.5, 3.0, np.pi)),
    ((0.3, 0.5, 0.8), (-0.2, 0.9, 0.1)),
], ids=["0", "0.3", "1.0", "1.5707963", "pi/2", "2.0", "2.5", "3.0", "pi", "y-tilted"])
def test_epr_overlap_expectations_hold_at_every_angle(n_dir, n_prime_dir):
    # the order-dependence closed form holds off the axes too, and with a y component
    scenario = build_scenario("epr-overlap", {"n_dir": n_dir, "n_prime_dir": n_prime_dir})
    for res in evaluate_expected(scenario):
        assert res.ok, (res.name, res.expected, res.actual, res.tol)


def test_order_independence_needs_imposed_families():
    with pytest.raises(ValueError):
        order_independence_check(massive_control())


def test_massive_control_spectrum_parameter():
    sc = massive_control(spectrum=(0.5, 0.3, 0.2))
    results = {r.name: r for r in evaluate_expected(sc)}
    assert results["n_leaves"].actual == 3.0
    for res in results.values():
        assert res.ok, res


@pytest.mark.parametrize("name, spectrum, levels", [
    ("recording-demo", [1.0], 2), ("recording-demo", [0.5, 0.3, 0.2], 2),
    ("two-leaf-chain", [0.6, 0.4], 4), ("two-leaf-chain", [0.3, 0.25, 0.2, 0.15, 0.1], 4)])
def test_scenario_refuses_a_spectrum_of_the_wrong_length(name, spectrum, levels):
    with pytest.raises(ConfigError, match=f"has {len(spectrum)} levels, not the {levels}"):
        build_scenario(name, {"spectrum": spectrum})


def test_massive_control_rejects_unfaithful_spectrum():
    with pytest.raises(ConfigError):
        massive_control(spectrum=(1.0, 0.0))


@pytest.mark.parametrize("builder, spectrum, match", [
    (massive_control, (0.5, 0.5), "gaps"),
    (massive_control, (0.5, 0.5 - 5e-7, 5e-7), "gaps"),
    (massive_control, (0.9999999999, 1e-10), "below the floor"),
    (recording_demo, (0.5, 0.5), "gaps"),
    (recording_demo, (0.99, 0.01), "below the floor"),
], ids=["control-equal", "control-close", "control-below-prob-floor", "demo-equal",
        "demo-below-resolution"])
def test_scenario_refuses_a_spectrum_its_closed_forms_do_not_cover(builder, spectrum, match):
    with pytest.raises(ConfigError, match=match):
        builder(spectrum=spectrum)


def test_scenario_spectrum_floors_follow_prob_floor():
    coarse = NumericPolicy(prob_floor=0.3)
    with pytest.raises(ConfigError, match="below the floor 0.3"):
        massive_control(policy=coarse)
    with pytest.raises(ConfigError, match="below the floor 0.3"):
        recording_demo(policy=coarse)
    # a level at the resolution is kept, so it is allowed
    assert recording_demo(spectrum=(0.95, 0.05)).params["spectrum"] == [0.95, 0.05]


@pytest.mark.parametrize("tilt, passes", [(0.01, 1.0), (0.099, 1.0), (-0.099, 1.0),
                                          (0.11, 0.0), (0.3, 0.0), (np.pi, 1.0)])
def test_recording_demo_tilted_passes_is_its_closed_form(tilt, passes):
    # the tilted alignment norm is |sin tilt| / 2, held to the resolution 0.05
    sc = recording_demo(tilt=tilt)
    results = {r.name: r for r in evaluate_expected(sc)}
    assert results["tilted_passes"].expected == passes
    for res in results.values():
        assert res.ok, res


def test_pure_state_never_branches():
    # the control net with a pure initial state: no event anywhere
    net = build_full_net(CausalLattice(3, 1), cell_dim=2, n_cells=1)
    pure = State.from_vector(np.array([0.6, 0.8], dtype=complex))
    tree = enumerate_tree(net, foliate(net.lattice), pure)
    assert len(tree.leaves()) == 1
    assert tree.leaf_paths()[0][0] == ()
    assert tree.leaf_paths()[0][1] == 1.0


def test_recording_demo_large_tilt_fails():
    sc = recording_demo(tilt=0.3)
    rep = recording_check(sc.net, Point(0, 0), sc.initial,
                          sc.quantities["tilted"], 0.05)
    assert not rep.passes
    assert max(rep.alignment_norms) > 0.05


@pytest.mark.parametrize("tilt", [np.nan, np.inf, -np.inf, 10**400, True, "0.1"],
                         ids=["nan", "inf", "minus-inf", "huge-int", "bool", "string"])
def test_recording_demo_refuses_a_tilt_that_is_not_a_finite_number(tilt):
    with pytest.raises(ConfigError, match="tilt"):
        recording_demo(tilt=tilt)
    with pytest.raises(ConfigError, match="tilt"):
        build_scenario("recording-demo", {"tilt": tilt})


def test_build_scenario_rejects_unknown_name():
    with pytest.raises(ConfigError):
        build_scenario("no-such-scenario")


def test_build_scenario_rejects_bad_params():
    with pytest.raises(ConfigError):
        build_scenario("epr", {"bogus_knob": 3})


def test_build_scenario_forwards_params():
    sc = build_scenario("massive-control", {"extent_tau": 3})
    assert len(sc.foliation) == 3
