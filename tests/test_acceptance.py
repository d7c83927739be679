"""End-to-end guarantees of the simulator, one test per guarantee.

Each test prints a single [criterion NN] PASS/FAIL line (visible under -v
with -s, or in the captured output of a failure) and then asserts, so a
plain pytest run doubles as an acceptance report.
"""

import json
import time

import numpy as np
import pytest

from eventnet import (
    CausalLattice,
    Point,
    PotentialEvent,
    SCENARIO_BUILDERS,
    State,
    algebra_closure,
    build_tensor_net,
    centralizer,
    commutant,
    conditional_expectation,
    conditional_expectation_gns,
    derive_causal_order,
    detect_event,
    detect_event_on,
    enumerate_tree,
    epr_scenario,
    full_matrix_algebra,
    future_cone,
    history_operator,
    history_probability,
    mixture_check,
    mixture_defect,
    nonlocality_demo,
    order_independence_check,
    recording_check,
    traciality_defect,
    verify_nesting,
)
from eventnet.cli import load_config, run, serialize_report

import oracles


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else f"FAIL ({detail})"
    print(f"[criterion {num:02d}] {name}: {status}")


def _opnorm(mat) -> float:
    return float(np.linalg.norm(np.asarray(mat), 2))


def _subspace_residual(alg_a, alg_b) -> float:
    """Largest leftover when either algebra's basis is expanded in the other."""
    flat_a = np.stack([b.entries.ravel() for b in alg_a.basis])
    flat_b = np.stack([b.entries.ravel() for b in alg_b.basis])
    worst = 0.0
    for vec in flat_b:
        worst = max(worst, oracles.span_residual(flat_a, vec))
    for vec in flat_a:
        worst = max(worst, oracles.span_residual(flat_b, vec))
    return worst


def _random_generators(rng, dim: int, count: int):
    return [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(count)]


def test_criterion_01_double_commutant_closes_random_algebras():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 5
        gens = _random_generators(rng, dim, 1 + seed % 3)
        alg = algebra_closure(gens, dim)
        double = commutant(commutant(alg))
        assert double.dim == alg.dim, f"seed {seed}: dim {double.dim} != {alg.dim}"
        worst = max(worst, _subspace_residual(alg, double))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "double commutant returns the algebra",
            ok, f"residual {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_02_centralizer_is_tracial_for_its_state():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        dim = 2 + seed % 4
        alg = algebra_closure(_random_generators(rng, dim, 1 + seed % 2), dim)
        omega = State(oracles.random_faithful_state(dim, rng))
        cent = centralizer(alg, omega)
        worst = max(worst, traciality_defect(cent, omega))
    ok = worst < 1e-11
    _report(2, "state restricted to its centralizer is a trace",
            ok, f"defect {worst:.2e}")
    assert worst < 1e-11


def test_criterion_03_detected_event_matches_eigendecomposition():
    worst_proj = 0.0
    worst_weight = 0.0
    for n in (2, 3, 4):
        for seed in (0, 1):
            rng = np.random.default_rng(100 * n + seed)
            evals = np.linspace(1.0, 2.0, n)
            evals = evals / evals.sum()
            q, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            rho = (q * evals) @ q.conj().T
            det = detect_event_on(full_matrix_algebra(n), State(rho))
            assert det.happened
            assert len(det.event.projections) == n
            assert det.event_algebra.dim == n

            # independent oracle: rank-one eigenprojections of rho
            w, vecs = np.linalg.eigh(rho)
            oracle_projs = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(n)]
            oracle_weights = sorted(w, reverse=True)
            for got, expect in zip(det.probabilities, oracle_weights):
                worst_weight = max(worst_weight, abs(got - expect))

            used = set()
            for proj in det.event.projections:
                dists = [_opnorm(proj.entries - cand) for cand in oracle_projs]
                best = int(np.argmin(dists))
                assert best not in used, "two outcomes matched one eigenprojection"
                used.add(best)
                worst_proj = max(worst_proj, dists[best])
    ok = worst_proj < 1e-8 and worst_weight < 1e-10
    _report(3, "nondegenerate states yield their eigenprojections as outcomes",
            ok, f"proj {worst_proj:.2e}, weight {worst_weight:.2e}")
    assert worst_proj < 1e-8
    assert worst_weight < 1e-10


def test_criterion_04_happened_events_decompose_the_state():
    worst = 0.0
    n_checked = 0
    for build in SCENARIO_BUILDERS.values():
        sc = build()
        for pt in sc.net.lattice.points():
            det = detect_event(sc.net, pt, sc.initial)
            if not det.happened:
                continue
            worst = max(worst, mixture_check(sc.net, pt, sc.initial))
            n_checked += 1
    assert n_checked >= 3, "too few live detections to be meaningful"

    # negative control: projections outside the centralizer must not decompose
    rho = State(np.diag([0.75, 0.25]).astype(complex))
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    units = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        units[k][i, j] = 1.0
    defect = mixture_defect(rho, [plus, minus], units)

    ok = worst < 1e-10 and defect > 0.1
    _report(4, "states are mixtures over their event outcomes",
            ok, f"residual {worst:.2e} over {n_checked}, control {defect:.2f}")
    assert worst < 1e-10
    assert defect > 0.1


def _factor_families(scenario):
    """Every event family a scenario ships, reduced to its support factor.

    Yields (ambient_dim, reduced_state, factor_event) triples covering both
    live detections and imposed families; imposed projections are matched
    to whichever point's support they actually act on.
    """
    net = scenario.net
    rho = scenario.initial.rho
    supports = [net.support(pt) for pt in net.lattice.points()]
    for pt in net.lattice.points():
        det = detect_event(net, pt, scenario.initial)
        if det.happened:
            rho_f = net.reduce_state(rho, det.support)
            yield rho_f.shape[0], rho_f, PotentialEvent(det.factor_projections)
    if not scenario.imposed:
        return
    for pt, fam in scenario.imposed.items():
        factors = None
        for sup in supports:
            cands = []
            for proj in fam.projections:
                red = net.reduce_state(proj.entries, sup)
                cand = red / (net.dim // red.shape[0])
                if np.max(np.abs(net.embed(cand, sup) - proj.entries)) > 1e-9:
                    break
                cands.append(cand)
            else:
                factors = (sup, cands)
                break
        assert factors is not None, f"imposed family at {pt} has no single support"
        sup, cands = factors
        rho_f = net.reduce_state(rho, sup)
        yield rho_f.shape[0], rho_f, PotentialEvent(cands, labels=fam.labels)


def test_criterion_05_conditional_expectation_agrees_with_gns_projection():
    worst_pair = 0.0
    worst_fix = 0.0
    n_families = 0
    for build in SCENARIO_BUILDERS.values():
        sc = build()
        for dim, rho_f, event in _factor_families(sc):
            n_families += 1
            alg = full_matrix_algebra(dim)
            omega = State(rho_f)
            rng = np.random.default_rng(dim)
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            test_ops = [b.entries for b in alg.basis] + [(h + h.conj().T) / 2.0]
            for op in test_ops:
                closed = conditional_expectation(alg, omega, event, op)
                dual = conditional_expectation_gns(alg, omega, event, op)
                worst_pair = max(worst_pair, _opnorm(closed.entries - dual.entries))
            for proj in event.projections:
                fixed = conditional_expectation(alg, omega, event, proj)
                worst_fix = max(worst_fix, _opnorm(fixed.entries - proj.entries))
    assert n_families >= 4
    ok = worst_pair < 1e-10 and worst_fix < 1e-12
    _report(5, "averaging over outcomes equals the state-geometric projection",
            ok, f"pair {worst_pair:.2e}, fixed {worst_fix:.2e}, {n_families} families")
    assert worst_pair < 1e-10
    assert worst_fix < 1e-12


def test_criterion_06_algebra_inclusions_recover_the_causal_order():
    lattice = CausalLattice(3, 3)
    net = build_tensor_net(lattice, 2)
    points = net.lattice.points()
    n_causal = 0
    for p in points:
        for q in points:
            if p == q:
                continue
            rep = verify_nesting(net, p, q)
            if q in future_cone(lattice, p):
                n_causal += 1
                dropped = len(net.support(p)) - len(net.support(q))
                assert rep.holds, f"{p} -> {q} should nest"
                assert rep.strict_inclusion
                assert rep.rel_commutant_dim == 4 ** dropped
                assert not rep.rel_commutant_abelian
            else:
                assert not rep.holds, f"{p} -> {q} should not nest"
    order = derive_causal_order(net)
    ok = order.matches_geometric and not order.mismatches
    _report(6, "derived order equals lattice order on the 3x3 net",
            ok, f"{n_causal} causal pairs, {len(order.mismatches)} mismatches")
    assert set(order.future_pairs) == set(order.geometric_pairs)
    assert ok


def test_criterion_07_tree_probabilities_normalize_and_factor():
    worst_total = 0.0
    worst_chain = 0.0
    for name in ("two-leaf-chain", "epr"):
        sc = SCENARIO_BUILDERS[name]()
        tree = enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed)
        paths = tree.leaf_paths()
        total = sum(prob for _, prob in paths)
        worst_total = max(worst_total, abs(total - 1.0))
        for events, prob in paths:
            product = float(np.prod([e.born_prob for e in events]))
            h = history_operator(events, sc.net.lattice)
            via_history = history_probability(sc.initial, h)
            worst_chain = max(worst_chain, abs(via_history - product),
                              abs(prob - product))
    ok = worst_total < 1e-9 and worst_chain < 1e-9
    _report(7, "leaf probabilities sum to one and obey the chain rule",
            ok, f"total {worst_total:.2e}, chain {worst_chain:.2e}")
    assert worst_total < 1e-9
    assert worst_chain < 1e-9


def test_criterion_08_sampling_converges_and_is_reproducible():
    n_samples = 100_000
    sample_cfg = load_config(None, {"scenario": "two-leaf-chain", "mode": "sample",
                                    "samples": n_samples, "seed": 20260824})
    t0 = time.perf_counter()
    report_a, _ = run(sample_cfg)
    report_b, _ = run(sample_cfg)
    elapsed = time.perf_counter() - t0
    assert serialize_report(report_a) == serialize_report(report_b)

    enum_cfg = load_config(None, {"scenario": "two-leaf-chain", "mode": "enumerate"})
    enum_report, _ = run(enum_cfg)
    expected = {json.dumps(row["path"]): row["probability"]
                for row in enum_report["tree"]["leaves"]}
    sampled = {json.dumps(row["path"]): row["frequency"]
               for row in report_a["samples"]["paths"]}
    assert set(sampled) <= set(expected)
    worst_sigma = 0.0
    for key, prob in expected.items():
        freq = sampled.get(key, 0.0)
        band = oracles.binomial_four_sigma(prob, n_samples)
        worst_sigma = max(worst_sigma, abs(freq - prob) - band)
    ok = worst_sigma <= 0.0 and elapsed < 60.0
    _report(8, "sampled frequencies match the tree within four sigma",
            ok, f"excess {worst_sigma:.2e}, {elapsed:.1f}s for two runs")
    assert worst_sigma <= 0.0
    assert elapsed < 60.0


def test_criterion_09_spacelike_outcomes_commute_and_order_does_not_matter():
    sc = SCENARIO_BUILDERS["epr"]()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed)
    assert tree.max_commutator == 0.0
    assert all(norm == 0.0 for *_, norm in tree.commutation_norms)

    order_gap = order_independence_check(sc)
    assert order_gap < 1e-12

    aligned = epr_scenario(n_dir=(0.0, 0.0, 1.0), n_prime_dir=(0.0, 0.0, 1.0))
    rep = nonlocality_demo(aligned, outcome=("+", "+"))
    ok = (abs(rep.unconditioned - 0.5) < 1e-12
          and abs(rep.conditioned - 0.0) < 1e-12)
    _report(9, "spacelike pairs commute; conditioning shifts correlations only",
            ok, f"order {order_gap:.2e}, uncond {rep.unconditioned}, cond {rep.conditioned}")
    assert abs(rep.unconditioned - 0.5) < 1e-12
    assert abs(rep.conditioned - 0.0) < 1e-12


def test_criterion_10_recording_accepts_aligned_and_rejects_transverse():
    sc = SCENARIO_BUILDERS["recording-demo"]()
    point = Point(0, 0)
    epsilon = 0.05

    aligned = recording_check(sc.net, point, sc.initial,
                              sc.quantities["aligned"], epsilon)
    assert aligned.passes
    assert max(aligned.alignment_norms) < 1e-10

    transverse = recording_check(sc.net, point, sc.initial,
                                 sc.quantities["transverse"], epsilon)
    assert not transverse.passes
    assert all(abs(norm - 0.5) < 1e-10 for norm in transverse.alignment_norms)

    tilted = recording_check(sc.net, point, sc.initial,
                             sc.quantities["tilted"], epsilon)
    assert tilted.passes
    bound = 4.0 * tilted.retained * epsilon
    ok = tilted.mixture_residual <= bound
    _report(10, "recording passes aligned, rejects transverse, bounds tilted",
            ok, f"tilted residual {tilted.mixture_residual:.2e} vs {bound:.2e}")
    assert tilted.mixture_residual <= bound


def test_criterion_11_full_net_branches_once_from_mixed_never_from_pure():
    sc = SCENARIO_BUILDERS["massive-control"]()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)
    paths = tree.leaf_paths()
    weights = sorted(sc.params["spectrum"], reverse=True)
    assert len(paths) == len(weights)
    for (events, prob), expected in zip(paths, weights):
        assert len(events) == 1, "the mixed state must branch exactly once"
        assert events[0].point == Point(0, 0)
        assert abs(prob - expected) < 1e-12

    rng = np.random.default_rng(11)
    vec = rng.standard_normal(sc.net.dim) + 1j * rng.standard_normal(sc.net.dim)
    vec /= np.linalg.norm(vec)
    pure_tree = enumerate_tree(sc.net, sc.foliation, State.from_vector(vec))
    pure_paths = pure_tree.leaf_paths()
    ok = len(pure_paths) == 1 and len(pure_paths[0][0]) == 0
    _report(11, "full net branches once from mixed states, never from pure",
            ok, f"{len(paths)} mixed leaves, {len(pure_paths[0][0])} pure events")
    assert ok
    assert pure_paths[0][1] == pytest.approx(1.0, abs=1e-12)
