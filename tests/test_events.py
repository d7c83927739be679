"""Tests for event detection, collapse, and Born sampling."""

import numpy as np
import pytest

from eventnet import (
    ActualEvent,
    CausalLattice,
    NullBranchError,
    Operator,
    Point,
    State,
    build_full_net,
    build_tensor_net,
    collapse,
    detect_event,
    detect_event_on,
    full_matrix_algebra,
    mixture_check,
    mixture_defect,
    sample_actual,
    spacelike_commutator_norm,
)
from eventnet.linalg import PAULI_X, random_unitary

import oracles


def _single_cell_net(spectrum):
    """A one-point net whose reduced state is diag(spectrum)."""
    net = build_full_net(CausalLattice(1, 1), cell_dim=len(spectrum), n_cells=1)
    return net, State.diagonal(spectrum)


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def test_detect_event_mixed_state():
    net, omega = _single_cell_net([0.75, 0.25])
    det = detect_event(net, Point(0, 0), omega)
    assert det.happened
    assert det.probabilities == (0.75, 0.25)
    assert det.event_algebra.dim == 2
    assert len(det.event) == 2
    # outcomes are ordered by decreasing weight
    assert abs(omega.prob(det.event.projections[0]) - 0.75) < 1e-12


def test_detect_event_pure_state():
    net = build_full_net(CausalLattice(1, 1), cell_dim=2, n_cells=1)
    omega = State.from_vector(np.array([1.0, 1.0], dtype=complex))
    det = detect_event(net, Point(0, 0), omega)
    assert not det.happened
    assert det.probabilities[0] == pytest.approx(1.0)
    assert det.probabilities[1] == pytest.approx(0.0, abs=1e-12)


def test_detect_event_merges_degenerate_weights():
    net, omega = _single_cell_net([0.4, 0.4, 0.2])
    det = detect_event(net, Point(0, 0), omega)
    assert len(det.event) == 2
    assert det.probabilities == pytest.approx((0.8, 0.2))
    # the heavy projection covers the two-dimensional degenerate eigenspace
    assert abs(np.trace(det.event.projections[0].entries) - 2.0) < 1e-10


def test_detect_event_on_product_state():
    net = build_tensor_net(CausalLattice(2, 1))
    rho_a = np.diag([0.6, 0.4]).astype(complex)
    rho_b = np.diag([0.9, 0.1]).astype(complex)
    omega = State(np.kron(rho_a, rho_b))
    det = detect_event(net, Point(1, 0), omega)  # sees only the second cell
    assert det.happened
    assert det.probabilities == pytest.approx((0.9, 0.1))


def _gapped_state(dim, rng, gap=1e-3):
    """A random state whose eigenvalues lie at least ``gap`` apart."""
    while True:
        vals = rng.dirichlet(np.ones(dim))
        if np.min(np.diff(np.sort(vals))) >= gap:
            break
    u = random_unitary(dim, rng)
    return State((u * vals) @ u.conj().T)


def test_detection_routes_agree():
    rng = np.random.default_rng(31)
    omega = State(oracles.random_faithful_state(4, rng))
    generic = detect_event_on(full_matrix_algebra(4), omega)
    net = build_full_net(CausalLattice(1, 1), cell_dim=4, n_cells=1)
    fast = detect_event(net, Point(0, 0), omega)
    assert generic.happened == fast.happened
    assert np.allclose(generic.probabilities, fast.probabilities, atol=1e-9)
    for p, q in zip(generic.event.projections, fast.event.projections):
        assert np.max(np.abs(p.entries - q.entries)) < 1e-8
    # the same comparison on random gapped states of one 4-level cell and
    # of 2-cell cone nets whose later points see part of the cells; every
    # reduced spectrum met here is gapped by at least 1e-3 (near-degenerate
    # spectra are out of scope)
    nets = [net, build_tensor_net(CausalLattice(2, 1)), build_tensor_net(CausalLattice(1, 2))]
    compared, partial = 0, 0
    for _ in range(30):
        for net in nets:
            omega = _gapped_state(net.dim, rng)
            for pt in net.lattice.points():
                support = net.support(pt)
                reduced = net.reduce_state(omega, support)
                assert np.min(np.diff(np.linalg.eigvalsh(reduced))) >= 1e-3
                fast = detect_event(net, pt, omega)
                generic = detect_event_on(oracles.dense_algebra_at(net, pt), omega)
                assert generic.happened == fast.happened
                assert len(generic.event) == len(fast.event)
                assert np.allclose(generic.probabilities, fast.probabilities,
                                   rtol=0.0, atol=1e-9)
                for p, q in zip(generic.event.projections, fast.event.projections):
                    assert np.max(np.abs(p.entries - q.entries)) < 1e-8
                compared += 1
                partial += len(support) < net.n_cells
    assert compared >= 140 and partial >= 80


def test_detection_probabilities_match_eigenvalues():
    rng = np.random.default_rng(32)
    rho = oracles.random_faithful_state(3, rng)
    omega = State(rho)
    det = detect_event_on(full_matrix_algebra(3), omega)
    expected = sorted(np.linalg.eigvalsh(rho), reverse=True)
    assert np.allclose(det.probabilities, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Collapse
# ---------------------------------------------------------------------------

def test_collapse_is_projection_then_renormalize():
    net, omega = _single_cell_net([0.75, 0.25])
    det = detect_event(net, Point(0, 0), omega)
    actual = ActualEvent(point=det.point, label=det.event.labels[0],
                         projection=det.event.projections[0], born_prob=0.75)
    after = collapse(omega, actual)
    p = actual.projection.entries
    expected = p @ omega.rho @ p / 0.75
    assert np.max(np.abs(after.rho - expected)) < 1e-12


def test_collapse_rejects_null_outcome():
    omega = State.from_vector(np.array([1.0, 0.0], dtype=complex))
    dead = ActualEvent(point=None, label=1,
                       projection=Operator(np.diag([0.0, 1.0]).astype(complex)),
                       born_prob=0.0)
    with pytest.raises(NullBranchError):
        collapse(omega, dead)


def test_detect_event_trivial_for_maximally_mixed_cell():
    # a Bell half is locally maximally mixed: its centralizer is the whole
    # factor, the center is trivial, and no event is singled out
    net = build_tensor_net(CausalLattice(1, 2))
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    det = detect_event(net, Point(0, 0), State.from_vector(psi))
    assert not det.happened
    assert len(det.event) == 1
    assert det.event_algebra.dim == 1


def test_collapse_of_entangled_state_localizes():
    # collapsing one half of a correlated pair pins the other half
    net = build_tensor_net(CausalLattice(1, 2))
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(0.7)
    psi[3] = np.sqrt(0.3)
    omega = State.from_vector(psi)
    det = detect_event(net, Point(0, 0), omega)  # left cell: weights (0.7, 0.3)
    assert det.happened
    actual = sample_actual(det, rng=0)
    after = collapse(omega, actual)
    right = net.reduce_state(after, net.support(Point(0, 1)))
    assert np.max(np.abs(right @ right - right)) < 1e-10  # now pure


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_actual_deterministic_per_seed():
    net, omega = _single_cell_net([0.75, 0.25])
    det = detect_event(net, Point(0, 0), omega)
    a = sample_actual(det, rng=123)
    b = sample_actual(det, rng=123)
    assert a.label == b.label
    assert np.array_equal(a.projection.entries, b.projection.entries)


def test_sample_actual_frequencies():
    net, omega = _single_cell_net([0.75, 0.25])
    det = detect_event(net, Point(0, 0), omega)
    rng = np.random.default_rng(99)
    n = 20000
    hits = sum(sample_actual(det, rng=rng).label == det.event.labels[0]
               for _ in range(n))
    assert abs(hits / n - 0.75) < oracles.binomial_four_sigma(0.75, n)


def test_sample_actual_on_a_generic_detection():
    rng = np.random.default_rng(33)
    omega = State(oracles.random_faithful_state(3, rng))
    det = detect_event_on(full_matrix_algebra(3), omega)
    assert det.support is None and det.net is None
    assert det.isometries.shape[:2] == (3, 3)
    for seed in range(5):
        actual = sample_actual(det, rng=seed)
        assert actual.support is None
        assert actual.born_prob == det.probabilities[actual.label]
        assert np.array_equal(actual.factor, det.factor_projections[actual.label])
        assert np.array_equal(actual.projection.entries,
                              det.event.projections[actual.label].entries)
        p = actual.projection.entries
        expected = p @ omega.rho @ p / actual.born_prob
        assert np.max(np.abs(collapse(omega, actual).rho - expected)) < 1e-10


def test_sample_actual_rejects_unnormalized():
    net, omega = _single_cell_net([0.75, 0.25])
    det = detect_event(net, Point(0, 0), omega)
    det.probabilities = (0.75, 0.75)
    with pytest.raises(ValueError):
        sample_actual(det, rng=0)


# ---------------------------------------------------------------------------
# Mixture identity
# ---------------------------------------------------------------------------

def test_mixture_check_vanishes_for_detected_event():
    net, omega = _single_cell_net([0.75, 0.25])
    assert mixture_check(net, Point(0, 0), omega) < 1e-10


def test_mixture_check_on_partial_support():
    net = build_tensor_net(CausalLattice(2, 1))
    rho_a = np.diag([0.6, 0.4]).astype(complex)
    rho_b = np.diag([0.9, 0.1]).astype(complex)
    omega = State(np.kron(rho_a, rho_b))
    assert mixture_check(net, Point(1, 0), omega) < 1e-10


def test_mixture_defect_nonzero_for_noncentral_family():
    # projecting onto the sigma_x eigenbasis scrambles a sigma_z-diagonal state
    omega = State.diagonal([0.75, 0.25])
    plus = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    minus = np.eye(2, dtype=complex) - plus
    units = [np.eye(2, dtype=complex), PAULI_X,
             np.diag([1.0, 0.0]).astype(complex)]
    defect = mixture_defect(omega, (plus, minus), units)
    assert defect > 0.1


# ---------------------------------------------------------------------------
# Spacelike commutators
# ---------------------------------------------------------------------------

def test_spacelike_detections_commute():
    net = build_tensor_net(CausalLattice(1, 2))
    omega = State(np.kron(np.diag([0.7, 0.3]), np.diag([0.55, 0.45])).astype(complex))
    det_a = detect_event(net, Point(0, 0), omega)
    det_b = detect_event(net, Point(0, 1), omega)
    norm = spacelike_commutator_norm(det_a, det_b, lattice=net.lattice)
    assert norm == 0.0


def _dense_commutator(det_a, det_b):
    return oracles.max_commutator_norm_dense([p.entries for p in det_a.event.projections],
                                             [p.entries for p in det_b.event.projections])


def test_spacelike_norm_of_generic_and_mixed_pairs():
    rng = np.random.default_rng(34)
    net = build_tensor_net(CausalLattice(1, 2))
    left, right = Point(0, 0), Point(0, 1)
    omega = _gapped_state(net.dim, rng)
    # spacelike points, both detected against their explicit algebras
    gen_a = detect_event_on(oracles.dense_algebra_at(net, left), omega, point=left)
    gen_b = detect_event_on(oracles.dense_algebra_at(net, right), omega, point=right)
    fast_a = detect_event(net, left, omega)
    for det_a, det_b in ((gen_a, gen_b), (fast_a, gen_b)):
        norm = spacelike_commutator_norm(det_a, det_b, lattice=net.lattice)
        assert norm < 1e-12
        assert abs(norm - _dense_commutator(det_a, det_b)) < 1e-12
    # families that do not commute: a generic detection of another state on
    # the whole space, against a generic and a net detection
    other = detect_event_on(full_matrix_algebra(net.dim), _gapped_state(net.dim, rng))
    for det in (gen_a, fast_a):
        norm = spacelike_commutator_norm(det, other)
        assert norm > 0.1
        assert abs(norm - _dense_commutator(det, other)) < 1e-12


def test_spacelike_norm_rejects_timelike_pairs():
    net = build_tensor_net(CausalLattice(2, 1))
    omega = State.maximally_mixed(net.dim)
    det_a = detect_event(net, Point(0, 0), omega)
    det_b = detect_event(net, Point(1, 0), omega)
    with pytest.raises(ValueError):
        spacelike_commutator_norm(det_a, det_b, lattice=net.lattice)
