"""Tests for quantity validation, spectral ranking, and the recording criterion."""

import numpy as np
import pytest

from eventnet import (
    AlgebraNet,
    CausalLattice,
    Operator,
    PhysicalQuantity,
    Point,
    ResolutionError,
    State,
    build_full_net,
    build_tensor_net,
    detect_event,
    detect_event_on,
    event_basis,
    full_matrix_algebra,
    mixture_check,
    recording_check,
    recording_demo,
    sample_actual,
    spectral_decompose,
    validate_quantity,
)
from eventnet import linalg
from eventnet.linalg import PAULI_X, PAULI_Z


def _single_cell(spectrum):
    net = build_full_net(CausalLattice(1, 1), cell_dim=len(spectrum), n_cells=1)
    return net, State.diagonal(spectrum), Point(0, 0)


# ---------------------------------------------------------------------------
# Quantity validation
# ---------------------------------------------------------------------------

def test_validate_quantity_accepts_factor_representative():
    net, _, p = _single_cell([0.75, 0.25])
    q = PhysicalQuantity("spin", {p: Operator(PAULI_Z)})
    validate_quantity(q, net)


def test_validate_quantity_accepts_localized_ambient():
    net = build_tensor_net(CausalLattice(2, 1))
    p = Point(1, 0)
    ambient = net.embed(PAULI_Z, net.support(p))
    validate_quantity(PhysicalQuantity("late", {p: Operator(ambient)}), net)


def test_validate_quantity_rejects_non_self_adjoint():
    net, _, p = _single_cell([0.75, 0.25])
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        validate_quantity(PhysicalQuantity("bad", {p: Operator(raising)}), net)


def test_validate_quantity_rejects_delocalized_ambient():
    net = build_tensor_net(CausalLattice(2, 1))
    p = Point(1, 0)  # support is the later cell only
    elsewhere = net.embed(PAULI_Z, (0,))
    with pytest.raises(ValueError):
        validate_quantity(PhysicalQuantity("bad", {p: Operator(elsewhere)}), net)


def test_validate_quantity_rejects_wrong_dimension():
    net, _, p = _single_cell([0.75, 0.25])
    with pytest.raises(ValueError):
        validate_quantity(PhysicalQuantity("bad", {p: Operator(np.eye(3))}), net)


def test_quantity_at_unknown_point():
    q = PhysicalQuantity("spin", {Point(0, 0): Operator(PAULI_Z)})
    with pytest.raises(ValueError):
        q.at(Point(1, 0))


# ---------------------------------------------------------------------------
# Spectral decomposition ranked by weight
# ---------------------------------------------------------------------------

def test_spectral_decompose_orders_by_weight():
    omega = State.diagonal([0.25, 0.75])
    dec = spectral_decompose(np.diag([2.0, -3.0]).astype(complex), omega, 0.05)
    assert dec.eigenvalues == [-3.0, 2.0]  # the heavy eigenvector first
    assert dec.weights == pytest.approx([0.75, 0.25])
    assert dec.retained == 2
    assert dec.residual == pytest.approx(0.0, abs=1e-12)


def test_spectral_decompose_retention_threshold():
    omega = State.diagonal([0.75, 0.25])
    dec = spectral_decompose(np.diag([2.0, -3.0]).astype(complex), omega, 0.3)
    assert dec.retained == 1  # dropping 0.25 is allowed at epsilon=0.3
    assert dec.residual == pytest.approx(0.25)


def test_spectral_decompose_merges_near_degenerate():
    x = np.diag([1.0 + 1e-8, 1.0, -1.0]).astype(complex)
    omega = State.maximally_mixed(3)
    dec = spectral_decompose(x, omega, 0.05)
    assert len(dec.projections) == 2
    traces = sorted(np.trace(p.entries).real for p in dec.projections)
    assert traces == pytest.approx([1.0, 2.0])


def test_spectral_decompose_rejects_bad_input():
    omega = State.maximally_mixed(2)
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        spectral_decompose(raising, omega, 0.05)
    with pytest.raises(ValueError):
        spectral_decompose(PAULI_Z, omega, 0.0)


# ---------------------------------------------------------------------------
# Event bases
# ---------------------------------------------------------------------------

def test_event_basis_keeps_everything_above_epsilon():
    net, omega, p = _single_cell([0.5, 0.3, 0.2])
    det = detect_event(net, p, omega)
    basis = event_basis(det, 0.15)
    assert basis.weights == pytest.approx([0.5, 0.3, 0.2])
    assert basis.residual == pytest.approx(0.0, abs=1e-12)


def test_event_basis_drops_small_outcomes():
    net, omega, p = _single_cell([0.5, 0.3, 0.2])
    det = detect_event(net, p, omega)
    basis = event_basis(det, 0.25)
    assert basis.weights == pytest.approx([0.5, 0.3])
    assert basis.residual == pytest.approx(0.2)


def test_event_basis_fails_when_too_much_is_dropped():
    net, omega, p = _single_cell([0.5, 0.3, 0.2])
    det = detect_event(net, p, omega)
    with pytest.raises(ResolutionError):
        event_basis(det, 0.35)  # drops 0.5 of the mass, way above epsilon


def test_event_basis_of_a_generic_detection():
    # a detection against an explicit algebra keeps its outcomes on the
    # algebra's whole space, so its factor projections are the ambient ones
    omega = State.diagonal([0.5, 0.3, 0.2])
    det = detect_event_on(full_matrix_algebra(3), omega)
    basis = event_basis(det, 0.25)
    assert basis.labels == [0, 1]
    assert basis.weights == pytest.approx([0.5, 0.3])
    for label, factor in zip(basis.labels, basis.factor_projections):
        assert np.array_equal(factor, det.event.projections[label].entries)
        assert omega.prob(factor) == pytest.approx(det.probabilities[label], abs=1e-12)


def test_event_basis_rejects_tiny_epsilon():
    net, omega, p = _single_cell([0.75, 0.25])
    det = detect_event(net, p, omega)
    with pytest.raises(ValueError):
        event_basis(det, 1e-9)


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

def test_recording_aligned_quantity_passes_exactly():
    sc = recording_demo()
    rep = recording_check(sc.net, Point(0, 0), sc.initial,
                          sc.quantities["aligned"], 0.05)
    assert rep.passes
    assert max(rep.alignment_norms) < 1e-10
    assert rep.retained == 2
    assert rep.mixture_residual < 1e-12
    # each retained projection matches a distinct outcome essentially exactly
    assert [lbl for _, lbl, _ in rep.matches] == [0, 1]
    assert all(dist < 1e-10 for _, _, dist in rep.matches)


def test_recording_transverse_quantity_fails():
    sc = recording_demo()
    rep = recording_check(sc.net, Point(0, 0), sc.initial,
                          sc.quantities["transverse"], 0.05)
    assert not rep.passes
    assert rep.alignment_norms == pytest.approx([0.5, 0.5], abs=1e-10)
    # misaligned projections sit far from every outcome
    assert all(lbl is None for _, lbl, _ in rep.matches)


def test_recording_tilted_quantity_passes_at_moderate_epsilon():
    sc = recording_demo()
    rep = recording_check(sc.net, Point(0, 0), sc.initial,
                          sc.quantities["tilted"], 0.05)
    assert rep.passes
    assert 0.0 < max(rep.alignment_norms) < 0.05
    assert rep.mixture_residual <= 4 * rep.retained * 0.05


def test_recording_needs_an_event():
    net = build_full_net(CausalLattice(1, 1), cell_dim=2, n_cells=1)
    pure = State.from_vector(np.array([1.0, 0.0], dtype=complex))
    q = PhysicalQuantity("spin", {Point(0, 0): Operator(PAULI_Z)})
    with pytest.raises(ResolutionError):
        recording_check(net, Point(0, 0), pure, q, 0.05)


def test_recording_on_partial_support():
    # quantity and event both live on the later cell of a two-cell net
    net = build_tensor_net(CausalLattice(2, 1))
    p = Point(1, 0)
    rho_a = np.diag([0.5, 0.5]).astype(complex)
    rho_b = np.diag([0.8, 0.2]).astype(complex)
    omega = State(np.kron(rho_a, rho_b))
    q = PhysicalQuantity("late-spin", {p: Operator(PAULI_Z)})
    rep = recording_check(net, p, omega, q, 0.05)
    assert rep.passes
    assert max(rep.alignment_norms) < 1e-10
    assert rep.weights == pytest.approx([0.8, 0.2])


def test_record_path_builds_nothing_on_the_whole_net(monkeypatch):
    net = build_tensor_net(CausalLattice(2, 3))
    rng = np.random.default_rng(4)
    g = rng.standard_normal((net.dim, net.dim)) + 1j * rng.standard_normal((net.dim, net.dim))
    omega = State(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    point = Point(0, 1)
    rho_f = net.reduce_state(omega, net.support(point))
    quantity = PhysicalQuantity("own-spectrum", {point: Operator(rho_f)})
    on_net = PhysicalQuantity("own-spectrum",
                              {point: Operator(net.embed(rho_f, net.support(point)))})

    def refuse(*args, **kwargs):
        raise AssertionError("embedded into the whole net")

    monkeypatch.setattr(AlgebraNet, "embed", refuse)
    monkeypatch.setattr(linalg, "embed_factor", refuse)
    det = detect_event(net, point, omega)
    assert det.happened and len(det.factor_projections) == net.factor_dim(point)
    assert mixture_check(net, point, omega) < 1e-12
    rep = recording_check(net, point, omega, quantity, 0.01)
    assert rep.passes and rep.retained == net.factor_dim(point)
    # a quantity given on the whole net is reduced to its factor, not embedded back
    rep_net = recording_check(net, point, omega, on_net, 0.01)
    assert rep_net.alignment_norms == pytest.approx(rep.alignment_norms, abs=1e-12)
    actual = sample_actual(det, rng=5)
    assert actual.support == det.support
    assert np.array_equal(actual.factor, det.factor_projections[actual.label])
    assert actual.born_prob == det.probabilities[actual.label]
    with pytest.raises(AssertionError, match="embedded"):
        det.event
    monkeypatch.undo()
    assert actual.label == det.event.labels[actual.label]
    assert np.array_equal(actual.projection.entries,
                          det.event.projections[actual.label].entries)
    assert len(det.event.projections) == net.factor_dim(point)
    assert det.event_algebra.dim == net.factor_dim(point)


def test_each_check_takes_one_partial_trace(monkeypatch):
    sc = recording_demo()
    point = Point(0, 0)
    calls = []
    reduce_state = AlgebraNet.reduce_state

    def counted(self, omega, support):
        calls.append(tuple(support))
        return reduce_state(self, omega, support)

    monkeypatch.setattr(AlgebraNet, "reduce_state", counted)
    recording_check(sc.net, point, sc.initial, sc.quantities["aligned"], 0.05)
    assert calls == [sc.net.support(point)]
    calls.clear()
    mixture_check(sc.net, point, sc.initial)
    assert calls == [sc.net.support(point)]


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, float("nan")])
def test_refusals(epsilon):
    net, omega, p = _single_cell([0.75, 0.25])
    with pytest.raises(ValueError) as exc:
        event_basis(detect_event(net, p, omega), epsilon)
    assert str(exc.value) == "epsilon must lie strictly between 0 and 1"
