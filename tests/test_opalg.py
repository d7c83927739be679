"""Tests for operators, algebras, states, and the derived event machinery."""

import numpy as np
import pytest

from eventnet import (
    DEFAULT_POLICY,
    DimensionMismatchError,
    EigengapError,
    NullBranchError,
    NumericPolicy,
    Operator,
    OperatorAlgebra,
    PotentialEvent,
    ResolutionError,
    State,
    algebra_closure,
    center,
    center_of_centralizer,
    centralizer,
    commutant,
    conditional_expectation,
    conditional_expectation_gns,
    diagonal_algebra,
    full_matrix_algebra,
    gns_construct,
    minimal_projections,
    support_restrict,
    traciality_defect,
)
from eventnet.linalg import PAULI_X, PAULI_Z

import oracles


# ---------------------------------------------------------------------------
# Operator and State basics
# ---------------------------------------------------------------------------

def test_operator_adjoint_involution():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = Operator(m)
    assert np.array_equal(op.adjoint().adjoint().entries, op.entries)
    assert not oracles.is_self_adjoint(op)
    assert oracles.is_self_adjoint(op + op.adjoint())


def test_operator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        _ = Operator(np.eye(2)) @ Operator(np.eye(3))


def test_operator_entries_frozen():
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_state_rejects_nonpositive():
    with pytest.raises(ValueError):
        State(np.diag([1.5, -0.5]).astype(complex))


def test_state_rejects_wrong_trace():
    with pytest.raises(ValueError):
        State(np.diag([0.7, 0.7]).astype(complex))


def test_state_rejects_nonhermitian():
    m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        State(m)


def test_state_from_vector_normalizes():
    st = State.from_vector(np.array([3.0, 4.0], dtype=complex))
    assert abs(np.trace(st.rho) - 1.0) < 1e-14
    assert abs(st.prob(Operator(np.diag([1.0, 0.0]).astype(complex))) - 9 / 25) < 1e-14


def test_state_value_matches_trace():
    rng = np.random.default_rng(1)
    rho = State(oracles.random_faithful_state(3, rng))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert abs(rho.value(Operator(a)) - np.trace(rho.rho @ a)) < 1e-12


def test_maximally_mixed():
    st = State.maximally_mixed(4)
    assert np.allclose(st.rho, np.eye(4) / 4)


# ---------------------------------------------------------------------------
# Potential events
# ---------------------------------------------------------------------------

def test_potential_event_accepts_orthogonal_complete_family():
    projs = (Operator(np.diag([1.0, 0.0]).astype(complex)),
             Operator(np.diag([0.0, 1.0]).astype(complex)))
    ev = PotentialEvent(projs, labels=("up", "down"))
    assert ev.labels == ("up", "down")
    assert len(ev) == 2


def test_potential_event_default_labels():
    ev = PotentialEvent([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert ev.labels == (0, 1)


def test_potential_event_rejects_incomplete_family():
    projs = (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        PotentialEvent(projs)


def test_potential_event_rejects_nonorthogonal_family():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    q = np.array([[0.5, 0.3], [0.3, 0.5]])
    with pytest.raises(ValueError):
        PotentialEvent((p, q))


def test_potential_event_rejects_nonidempotent():
    with pytest.raises(ValueError):
        PotentialEvent((np.diag([0.5, 0.0]), np.diag([0.5, 1.0])))


def test_potential_event_rejects_duplicate_labels():
    projs = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        PotentialEvent(projs, labels=("x", "x"))


# ---------------------------------------------------------------------------
# Algebra closure
# ---------------------------------------------------------------------------

def test_closure_of_diagonal_generator():
    alg = algebra_closure([Operator(PAULI_Z)], 2)
    assert alg.dim == 2
    assert alg.is_abelian()
    assert alg.contains(np.diag([2.0, -3.0]).astype(complex))
    assert not alg.contains(PAULI_X)


def test_closure_of_two_paulis_is_full():
    alg = algebra_closure([Operator(PAULI_X), Operator(PAULI_Z)], 2)
    assert alg.dim == 4
    assert not alg.is_abelian()


def test_closure_of_single_matrix_unit():
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    alg = algebra_closure([Operator(e01)], 2)
    assert alg.dim == 4


def test_closure_contains_identity_adjoints_products():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alg = algebra_closure([Operator(g)], 3)
    assert alg.contains(np.eye(3, dtype=complex))
    assert alg.contains(g.conj().T)
    for a in alg.basis:
        for b in alg.basis:
            assert alg.membership_residual(a.entries @ b.entries) < 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_closure_dim_matches_bruteforce_span(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 5))
    n_gens = int(rng.integers(1, 3))
    gens = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(n_gens)]
    alg = algebra_closure([Operator(g) for g in gens], n)
    assert alg.dim == oracles.product_span_dim(gens)


def test_basis_is_orthonormal():
    alg = algebra_closure([Operator(PAULI_X), Operator(PAULI_Z)], 2)
    gram = alg.flat_basis.conj() @ alg.flat_basis.T
    assert np.max(np.abs(gram - np.eye(alg.dim))) < 1e-12


def test_algebra_validation_accepts_an_orthonormal_unital_basis():
    alg = OperatorAlgebra([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert alg.dim == 2 and alg.contains(np.eye(2))


def test_algebra_validation_refuses_a_non_orthonormal_basis():
    with pytest.raises(ValueError, match="not orthonormal"):
        OperatorAlgebra([np.eye(2) / np.sqrt(2.0), np.diag([1.0, 0.0])])


def test_algebra_orthonormality_and_rank_cutoffs_read_tol_closure():
    # a basis element 1e-8 too long is orthonormal to within 2e-8
    off = [np.eye(2) / np.sqrt(2.0), PAULI_Z * (1.0 + 1e-8) / np.sqrt(2.0)]
    with pytest.raises(ValueError, match="not orthonormal"):
        OperatorAlgebra(off)
    assert OperatorAlgebra(off, policy=NumericPolicy(tol_closure=1e-6)).dim == 2
    # a generator 1e-8 away from the identity spans a direction only the
    # default cutoff keeps
    near_one = np.diag([1.0, 1.0 + 1e-8])
    assert algebra_closure([near_one], 2).dim == 2
    assert algebra_closure([near_one], 2, policy=NumericPolicy(tol_closure=1e-6)).dim == 1


def test_algebra_validation_refuses_a_span_without_the_identity():
    with pytest.raises(ValueError, match="identity"):
        OperatorAlgebra([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])])


# ---------------------------------------------------------------------------
# Commutants, centers
# ---------------------------------------------------------------------------

def test_commutant_of_scalars_is_full():
    scalars = algebra_closure([], 3)
    assert scalars.dim == 1
    assert commutant(scalars).dim == 9


def test_commutant_of_full_is_scalars():
    com = commutant(full_matrix_algebra(3))
    assert com.dim == 1
    assert com.contains(np.eye(3, dtype=complex))


@pytest.mark.parametrize("seed", range(6))
def test_commutant_matches_entrywise_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 5))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    alg = algebra_closure([Operator(g)], n)
    com = commutant(alg)
    ref = oracles.commutant_basis_entrywise([b.entries for b in alg.basis], n)
    assert com.dim == ref.shape[0]
    for row in ref:
        assert oracles.span_residual(com.flat_basis, row) < 1e-8
    for b in com.basis:
        assert oracles.span_residual(ref, b.entries.ravel()) < 1e-8


def test_bicommutant_recovers_algebra():
    rng = np.random.default_rng(42)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    alg = algebra_closure([Operator(g)], 4)
    bicom = commutant(commutant(alg))
    assert bicom.dim == alg.dim
    assert alg.equals(bicom)


def test_center_of_full_matrix_algebra_is_trivial():
    assert center(full_matrix_algebra(3)).dim == 1


def test_center_of_block_diagonal_algebra():
    # M2 (+) C inside M3: the center is spanned by the two block projections.
    e01 = np.zeros((3, 3), dtype=complex)
    e01[0, 1] = 1.0
    alg = algebra_closure([Operator(e01)], 3)
    assert alg.dim == 5
    z = center(alg)
    assert z.dim == 2
    assert z.is_abelian()
    assert z.contains(np.diag([1.0, 1.0, 0.0]).astype(complex))


def test_center_of_abelian_algebra_is_itself():
    alg = diagonal_algebra(3)
    z = center(alg)
    assert z.dim == 3
    assert alg.equals(z)


# ---------------------------------------------------------------------------
# Centralizers
# ---------------------------------------------------------------------------

def test_centralizer_of_tracial_state_is_everything():
    cen = centralizer(full_matrix_algebra(3), State.maximally_mixed(3))
    assert cen.dim == 9


def test_centralizer_of_nondegenerate_state_is_diagonal():
    omega = State.diagonal([0.5, 0.3, 0.2])
    cen = centralizer(full_matrix_algebra(3), omega)
    assert cen.dim == 3
    assert cen.is_abelian()
    assert cen.contains(np.diag([1.0, 2.0, 3.0]).astype(complex))


def test_centralizer_with_degenerate_spectrum():
    omega = State.diagonal([0.4, 0.4, 0.2])
    cen = centralizer(full_matrix_algebra(3), omega)
    # commutant of rho: M2 on the degenerate eigenspace, scalars on the rest
    assert cen.dim == 5
    z = center_of_centralizer(full_matrix_algebra(3), omega)
    assert z.dim == 2


def test_centralizer_is_tracial():
    rng = np.random.default_rng(7)
    omega = State(oracles.random_faithful_state(4, rng))
    cen = centralizer(full_matrix_algebra(4), omega)
    assert traciality_defect(cen, omega) < 1e-11


def test_traciality_defect_positive_outside_centralizer():
    omega = State.diagonal([0.75, 0.25])
    assert traciality_defect(full_matrix_algebra(2), omega) > 0.1


def test_center_of_centralizer_pure_state():
    omega = State.from_vector(np.array([1.0, 0.0], dtype=complex))
    z = center_of_centralizer(full_matrix_algebra(2), omega)
    assert z.dim == 2  # both spectral projections survive; one carries weight 0


# ---------------------------------------------------------------------------
# Minimal projections
# ---------------------------------------------------------------------------

def test_minimal_projections_of_diagonal_state():
    omega = State.diagonal([0.7, 0.3])
    z = center_of_centralizer(full_matrix_algebra(2), omega)
    event = minimal_projections(z)
    assert len(event) == 2
    total = sum(p.entries for p in event.projections)
    assert np.max(np.abs(total - np.eye(2))) < 1e-10
    weights = sorted((omega.prob(p) for p in event.projections), reverse=True)
    assert np.allclose(weights, [0.7, 0.3], atol=1e-12)
    # the projections generate the abelian algebra back
    regen = algebra_closure(list(event.projections), 2)
    assert regen.equals(z)


def test_minimal_projections_deterministic():
    omega = State.diagonal([0.6, 0.25, 0.15])
    z = center_of_centralizer(full_matrix_algebra(3), omega)
    first = minimal_projections(z)
    second = minimal_projections(z)
    for p, q in zip(first.projections, second.projections):
        assert np.array_equal(p.entries, q.entries)


def test_minimal_projections_gap_failure():
    omega = State.diagonal([0.7, 0.3])
    z = center_of_centralizer(full_matrix_algebra(2), omega)
    impossible = NumericPolicy(gap_min=10.0, max_retries=2)
    with pytest.raises(EigengapError):
        minimal_projections(z, policy=impossible)


@pytest.mark.parametrize("seed", range(6))
def test_minimal_projections_of_random_abelian_algebras(seed):
    # a unitarily rotated block-diagonal algebra: its minimal projections are
    # the rotated blocks, whatever their sizes
    rng = np.random.default_rng(500 + seed)
    sizes = rng.integers(1, 4, size=rng.integers(2, 5))
    n = int(sizes.sum())
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    edges = np.concatenate([[0], np.cumsum(sizes)])
    blocks = [q[:, lo:hi] @ q[:, lo:hi].conj().T for lo, hi in zip(edges[:-1], edges[1:])]
    alg = OperatorAlgebra([b / np.sqrt(s) for b, s in zip(blocks, sizes)])
    event = minimal_projections(alg)
    assert len(event) == len(blocks)
    matched = set()
    for p in event.projections:
        dists = [np.max(np.abs(p.entries - b)) for b in blocks]
        best = int(np.argmin(dists))
        assert dists[best] < 1e-10
        matched.add(best)
    assert matched == set(range(len(blocks)))


def test_minimal_projections_require_abelian():
    with pytest.raises(ValueError):
        minimal_projections(full_matrix_algebra(2))


# ---------------------------------------------------------------------------
# Cyclic (vector) representation of a state
# ---------------------------------------------------------------------------

def test_gns_inner_product_matches_state():
    rng = np.random.default_rng(11)
    omega = State(oracles.random_faithful_state(2, rng))
    alg = full_matrix_algebra(2)
    space = gns_construct(alg, omega)
    assert space.dim == 4  # faithful state on M2: nothing is null
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = space.inner(space.embed(a), space.embed(b))
        rhs = np.trace(omega.rho @ a.conj().T @ b)
        assert abs(lhs - rhs) < 1e-10


def test_gns_cyclic_vector_reproduces_state():
    rng = np.random.default_rng(12)
    omega = State(oracles.random_faithful_state(3, rng))
    space = gns_construct(full_matrix_algebra(3), omega)
    vec = space.cyclic_vector
    assert abs(np.vdot(vec, vec) - 1.0) < 1e-10
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert abs(np.vdot(vec, space.embed(a)) - omega.value(Operator(a))) < 1e-10


def test_opalg_tolerances_come_from_the_policy():
    # hermiticity against tol_proj
    skew = Operator(np.array([[1.0, 1e-6], [0.0, 1.0]]))
    assert not oracles.is_self_adjoint(skew)
    assert oracles.is_self_adjoint(skew, policy=NumericPolicy(tol_proj=1e-5))
    # self-adjoint parts shorter than tol_closure are dropped
    alg = OperatorAlgebra([np.diag([1.0, 1e-8j])], validate=False)
    assert len(alg.self_adjoint_parts()) == 2
    assert len(alg.self_adjoint_parts(NumericPolicy(tol_closure=1e-6))) == 1
    # a span without the identity gives |Omega|^2 = omega(E_00) = 0.5, not
    # omega(1) = 1; the miss is compared with tol_trace
    corner = OperatorAlgebra([np.diag([1.0, 0.0])], validate=False)
    omega = State.diagonal([0.5, 0.5])
    with pytest.raises(ArithmeticError, match="squared norm"):
        gns_construct(corner, omega)
    assert gns_construct(corner, omega, policy=NumericPolicy(tol_trace=0.6)).dim == 1


@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
def test_gns_accepts_near_pure_states(eps):
    # the quotient drops the Gram direction of weight eps once it falls
    # below tol_closure; the cyclic-vector check allows for that mass
    omega = State.diagonal([1.0 - eps, eps])
    for alg in (full_matrix_algebra(2), diagonal_algebra(2)):
        space = gns_construct(alg, omega)
        assert abs(np.vdot(space.cyclic_vector, space.cyclic_vector).real - 1.0) <= 2 * eps
    plus, minus = np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])
    event = PotentialEvent([plus, minus])
    a = np.array([[1.0, 2.0], [0.5j, -1.0]])
    dual = conditional_expectation_gns(full_matrix_algebra(2), omega, event, a)
    assert abs(omega.value(dual) - omega.value(Operator(a))) < 1e-9


def test_gns_null_cutoff_reads_tol_closure():
    # the Gram eigenvalues of diag(1 - 1e-6, 1e-6) on M2 are 1 - 1e-6 twice and 1e-6 twice
    omega = State.diagonal([1.0 - 1e-6, 1e-6])
    assert gns_construct(full_matrix_algebra(2), omega).dim == 4
    coarse = gns_construct(full_matrix_algebra(2), omega, policy=NumericPolicy(tol_closure=1e-4))
    assert coarse.dim == 2


def test_gns_quotient_for_pure_state():
    omega = State.from_vector(np.array([1.0, 0.0], dtype=complex))
    space = gns_construct(full_matrix_algebra(2), omega)
    assert space.dim == 2  # rank-one state: half of M2 is null


# ---------------------------------------------------------------------------
# Conditional expectation
# ---------------------------------------------------------------------------

def _two_outcome_setup():
    alg = full_matrix_algebra(2)
    omega = State.diagonal([0.75, 0.25])
    event = PotentialEvent((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    return alg, omega, event


def test_conditional_expectation_fixes_projections():
    alg, omega, event = _two_outcome_setup()
    for proj in event.projections:
        out = conditional_expectation(alg, omega, event, proj)
        assert np.max(np.abs(out.entries - proj.entries)) < 1e-12


def test_conditional_expectation_idempotent_and_compatible():
    rng = np.random.default_rng(21)
    alg, omega, event = _two_outcome_setup()
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    once = conditional_expectation(alg, omega, event, a)
    twice = conditional_expectation(alg, omega, event, once)
    assert np.max(np.abs(once.entries - twice.entries)) < 1e-12
    assert abs(omega.value(once) - omega.value(Operator(a))) < 1e-12


def test_conditional_expectation_agrees_with_vector_space_version():
    rng = np.random.default_rng(22)
    alg, omega, event = _two_outcome_setup()
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        closed = conditional_expectation(alg, omega, event, a)
        dual = conditional_expectation_gns(alg, omega, event, a)
        assert np.max(np.abs(closed.entries - dual.entries)) < 1e-10


def test_conditional_expectation_rejects_null_weights():
    alg = full_matrix_algebra(2)
    omega = State.from_vector(np.array([1.0, 0.0], dtype=complex))
    event = PotentialEvent((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    with pytest.raises(ResolutionError):
        conditional_expectation(alg, omega, event, PAULI_Z)


# ---------------------------------------------------------------------------
# Support restriction
# ---------------------------------------------------------------------------

def test_support_restrict_identifies_support():
    omega = State.diagonal([0.6, 0.4, 0.0])
    restricted = support_restrict(omega)
    assert abs(np.trace(restricted.support.entries) - 2.0) < 1e-10
    assert abs(np.trace(restricted.state.rho) - 1.0) < 1e-12


def test_support_restrict_clamps_noise():
    eps = 1e-14
    omega = State(np.diag([0.5, 0.5 + eps, -eps]).astype(complex))
    restricted = support_restrict(omega)
    assert np.linalg.eigvalsh(restricted.state.rho).min() >= 0.0
    assert abs(np.trace(restricted.support.entries) - 2.0) < 1e-10


def test_support_restrict_refuses_a_trace_below_prob_floor():
    omega = State.diagonal([0.6, 0.4, 0.0])
    assert support_restrict(omega, policy=NumericPolicy(prob_floor=0.999)).state.dim == 3
    with pytest.raises(NullBranchError, match="below floor"):
        support_restrict(omega, policy=NumericPolicy(prob_floor=1.5))


def test_policy_roundtrip():
    rebuilt = NumericPolicy(**DEFAULT_POLICY.as_dict())
    assert rebuilt == DEFAULT_POLICY
