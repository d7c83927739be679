"""Tests for the causal lattice, foliation, and the net of localized algebras."""

import numpy as np
import pytest

from eventnet import (
    AlgebraNet,
    CapExceededError,
    CausalLattice,
    DimensionMismatchError,
    NumericPolicy,
    Point,
    Relation,
    State,
    algebra_closure,
    build_full_net,
    build_tensor_net,
    causal_relate,
    derive_causal_order,
    foliate,
    future_cone,
    verify_nesting,
)
from eventnet.linalg import PAULI_X

import oracles


# ---------------------------------------------------------------------------
# Causal geometry
# ---------------------------------------------------------------------------

def test_causal_relations_unit_speed():
    lat = CausalLattice(3, 3)
    assert causal_relate(lat, Point(0, 0), Point(0, 0)) is Relation.EQUAL
    assert causal_relate(lat, Point(0, 0), Point(1, 1)) is Relation.FUTURE  # cone boundary
    assert causal_relate(lat, Point(0, 0), Point(2, 1)) is Relation.FUTURE
    assert causal_relate(lat, Point(0, 0), Point(0, 2)) is Relation.SPACELIKE
    assert causal_relate(lat, Point(1, 1), Point(0, 0)) is Relation.PAST
    assert causal_relate(lat, Point(1, 0), Point(2, 2)) is Relation.SPACELIKE


def test_causal_relations_speed_two():
    lat = CausalLattice(2, 3, speed=2)
    assert causal_relate(lat, Point(0, 0), Point(1, 2)) is Relation.FUTURE


def test_causal_relate_rejects_outside_points():
    lat = CausalLattice(2, 2)
    with pytest.raises(ValueError):
        causal_relate(lat, Point(0, 0), Point(5, 0))


def test_lattice_validation():
    with pytest.raises(ValueError):
        CausalLattice(0, 3)
    with pytest.raises(ValueError):
        CausalLattice(2, 2, speed=0)


def test_future_cone_sizes():
    lat = CausalLattice(3, 3)
    assert len(future_cone(lat, Point(0, 0))) == 6
    assert len(future_cone(lat, Point(1, 1))) == 4
    assert len(future_cone(lat, Point(2, 2))) == 1
    cone = future_cone(lat, Point(1, 1))
    assert Point(1, 1) in cone
    assert Point(2, 0) in cone and Point(2, 2) in cone


def test_foliation_structure():
    lat = CausalLattice(3, 2)
    fol = foliate(lat)
    assert len(fol) == 3
    for t, leaf in enumerate(fol):
        assert all(p.tau == t for p in leaf)
        assert [p.x for p in leaf] == [0, 1]
        for i, p in enumerate(leaf):
            for q in leaf[i + 1:]:
                assert causal_relate(lat, p, q) is Relation.SPACELIKE


# ---------------------------------------------------------------------------
# The net of algebras
# ---------------------------------------------------------------------------

def test_tensor_net_dimensions():
    net = build_tensor_net(CausalLattice(3, 3))
    assert net.n_cells == 9
    assert net.dim == 512
    assert net.factor_dim(Point(0, 0)) == 2 ** 6
    assert net.algebra_dim(Point(2, 2)) == 4


def test_net_dimension_cap():
    with pytest.raises(CapExceededError):
        build_tensor_net(CausalLattice(4, 4))


def test_full_net_points_are_capped_by_the_dimension_cap():
    # a full net lists every point; past dimension_cap points it is refused first
    assert len(build_full_net(CausalLattice(20, 20), cell_dim=4).supports) == 400
    policy = NumericPolicy(dimension_cap=399)
    with pytest.raises(CapExceededError, match="20x20 lattice points exceeds the cap 399"):
        build_full_net(CausalLattice(20, 20), cell_dim=2, policy=policy)
    assert build_full_net(CausalLattice(19, 21), cell_dim=2, policy=policy).dim == 2


def test_supports_shrink_into_the_future():
    net = build_tensor_net(CausalLattice(3, 3))
    lat = net.lattice
    for p in lat.points():
        for q in future_cone(lat, p):
            assert set(net.support(q)) <= set(net.support(p))


def test_support_outside_net_raises():
    net = build_tensor_net(CausalLattice(2, 2))
    with pytest.raises(ValueError):
        net.support(Point(9, 9))


def test_embed_reduce_roundtrip():
    net = build_tensor_net(CausalLattice(2, 1))
    rng = np.random.default_rng(3)
    support = net.support(Point(1, 0))
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    embedded = net.embed(op, support)
    factor, residual = net.reduce_operator(embedded, support)
    assert residual < 1e-12
    assert np.max(np.abs(factor - op)) < 1e-12


def test_reduce_operator_flags_delocalized():
    net = build_tensor_net(CausalLattice(2, 1))
    # swap on both cells is not localized on the later cell alone
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[a * 2 + b, b * 2 + a] = 1.0
    _, residual = net.reduce_operator(swap, net.support(Point(1, 0)))
    assert residual > 0.5


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("seed", range(6))
def test_reduce_operator_matches_embedding_oracle(seed):
    rng = np.random.default_rng(seed)
    nets = [build_tensor_net(CausalLattice(2, 2)),
            build_full_net(CausalLattice(1, 3), cell_dim=3, n_cells=3)]
    for net in nets:
        n, d = net.n_cells, net.cell_dim
        supports = [(), tuple(range(n)), tuple(rng.permutation(n)[:2]),
                    (int(rng.integers(n)),)]
        for support in supports:
            local = net.embed(_random_matrix(rng, d ** len(support)), support)
            for op, is_local in ((local, True), (_random_matrix(rng, net.dim), False),
                                 (local + 1e-3 * _random_matrix(rng, net.dim), False)):
                factor, residual = net.reduce_operator(op, support)
                want, want_residual = oracles.reduce_operator_by_embedding(op, support, n, d)
                assert np.max(np.abs(factor - want)) < 1e-12
                assert abs(residual - want_residual) < 1e-12
                # every operator is local on every cell
                assert (residual < 1e-12) == (is_local or len(support) == n)


@pytest.mark.parametrize("seed", range(6))
def test_localize_matches_per_cell_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    nets = [build_tensor_net(CausalLattice(2, 2)),
            build_full_net(CausalLattice(1, 3), cell_dim=3, n_cells=3)]
    for net in nets:
        n, d = net.n_cells, net.cell_dim
        ops = []
        for _ in range(2):
            support = tuple(sorted(rng.permutation(n)[:int(rng.integers(n + 1))]))
            op = net.embed(_random_matrix(rng, d ** len(support)), support)
            # noise well below the tolerance leaves the support as it is,
            # a perturbation on one more cell well above it adds that cell
            op = op + 1e-14 * _random_matrix(rng, net.dim)
            if rng.random() < 0.5:
                cell = (int(rng.integers(n)),)
                op = op + 1e-3 * net.embed(_random_matrix(rng, d), cell)
            ops.append(op)
        support, factors = net.localize(ops, 1e-9)
        want, want_factors = oracles.localize_by_cells(ops, n, d, 1e-9)
        assert support == want
        for got, ref in zip(factors, want_factors):
            assert np.max(np.abs(got - ref)) < 1e-12


def test_reduce_state_is_partial_trace():
    net = build_tensor_net(CausalLattice(2, 1))
    rho_a = np.diag([0.75, 0.25]).astype(complex)
    rho_b = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    omega = State(np.kron(rho_a, rho_b))
    assert np.max(np.abs(net.reduce_state(omega, (0,)) - rho_a)) < 1e-12
    assert np.max(np.abs(net.reduce_state(omega, (1,)) - rho_b)) < 1e-12


def test_membership_residual_localization():
    net = build_tensor_net(CausalLattice(2, 2))
    p_late = Point(1, 0)
    op_local = net.embed(PAULI_X, net.support(p_late))
    assert net.membership_residual(op_local, p_late) < 1e-12
    # an operator on a cell outside the support is not in the local algebra
    outside = tuple(set(range(net.n_cells)) - set(net.support(p_late)))[:1]
    op_outside = net.embed(PAULI_X, outside)
    assert net.membership_residual(op_outside, p_late) > 0.5


def test_net_operator_maps_refuse_non_square_input():
    net = build_tensor_net(CausalLattice(2, 2))
    with pytest.raises(DimensionMismatchError):
        net.embed(np.ones((2, 3)), (0,))
    with pytest.raises(DimensionMismatchError):
        net.reduce_operator(np.ones((net.dim, 2)), (0,))


def _off_the_net_call(net, case):
    state, eye = State.maximally_mixed(net.dim), np.eye(net.dim)
    return {
        "reduce_operator dim": lambda: net.reduce_operator(np.eye(8), (0,)),
        "localize dim": lambda: net.localize([np.eye(8)], 1e-9),
        "membership_residual dim": lambda: net.membership_residual(np.eye(4), Point(1, 0)),
        "reduce_operator cell 7": lambda: net.reduce_operator(eye, (7,)),
        "reduce_state cell 7": lambda: net.reduce_state(state, (7,)),
        "reduce_operator cells (0, 0)": lambda: net.reduce_operator(eye, (0, 0)),
        "reduce_state cells (0, 0)": lambda: net.reduce_state(state, (0, 0)),
        "embed cell 7": lambda: net.embed(np.eye(2), (7,)),
    }[case]


@pytest.mark.parametrize("case", ["reduce_operator dim", "localize dim",
                                  "membership_residual dim"])
def test_net_refuses_operators_off_its_dimension(case):
    net = build_tensor_net(CausalLattice(2, 2))
    with pytest.raises(DimensionMismatchError, match=f"dimension {net.dim}"):
        _off_the_net_call(net, case)()


@pytest.mark.parametrize("case", ["reduce_operator cell 7", "reduce_state cell 7",
                                  "reduce_operator cells (0, 0)", "reduce_state cells (0, 0)",
                                  "embed cell 7"])
def test_net_refuses_cells_off_the_net(case):
    net = build_tensor_net(CausalLattice(2, 2))
    with pytest.raises(ValueError, match="not distinct cells"):
        _off_the_net_call(net, case)()


def test_dense_algebra_matches_generated_closure():
    net = build_tensor_net(CausalLattice(2, 1))
    for p in net.lattice.points():
        dense = oracles.dense_algebra_at(net, p)
        generated = algebra_closure(oracles.cell_generators(net, p), net.dim)
        assert dense.dim == net.algebra_dim(p)
        assert dense.equals(generated)


def test_dense_algebra_refuses_huge_bases():
    net = build_tensor_net(CausalLattice(3, 3))
    with pytest.raises(CapExceededError):
        oracles.dense_algebra_at(net, Point(0, 1))


def test_full_net_supports_are_constant():
    net = build_full_net(CausalLattice(3, 1), cell_dim=2, n_cells=1)
    assert net.dim == 2
    sups = {net.support(p) for p in net.lattice.points()}
    assert sups == {(0,)}


# ---------------------------------------------------------------------------
# Nesting and the derived causal order
# ---------------------------------------------------------------------------

def test_nesting_holds_along_a_chain():
    net = build_tensor_net(CausalLattice(2, 1))
    rep = verify_nesting(net, Point(0, 0), Point(1, 0))
    assert rep.strict_inclusion
    assert rep.rel_commutant_dim == 4
    assert not rep.rel_commutant_abelian
    assert rep.holds


def test_nesting_fails_for_equal_or_reversed_pairs():
    net = build_tensor_net(CausalLattice(2, 1))
    same = verify_nesting(net, Point(0, 0), Point(0, 0))
    assert not same.strict_inclusion and not same.holds
    reversed_rep = verify_nesting(net, Point(1, 0), Point(0, 0))
    assert not reversed_rep.holds


def test_nesting_fails_for_spacelike_pairs():
    net = build_tensor_net(CausalLattice(2, 3))
    rep = verify_nesting(net, Point(0, 0), Point(0, 2))
    assert not rep.holds


@pytest.mark.parametrize("extents", [(2, 1), (2, 2)])
def test_structural_and_dense_nesting_agree(extents):
    net = build_tensor_net(CausalLattice(*extents))
    pts = net.lattice.points()
    for p in pts:
        for q in pts:
            if p == q:
                continue
            fast = verify_nesting(net, p, q)
            slow = oracles.verify_nesting_dense(net, p, q)
            assert fast.holds == slow.holds, (p, q)
            assert fast.strict_inclusion == slow.strict_inclusion, (p, q)
            if fast.strict_inclusion:
                assert fast.rel_commutant_dim == slow.rel_commutant_dim, (p, q)


def test_derived_order_matches_geometry():
    net = build_tensor_net(CausalLattice(2, 2))
    report = derive_causal_order(net)
    assert report.matches_geometric
    assert report.mismatches == []
    assert set(report.future_pairs) == {
        (Point(0, 0), Point(1, 0)), (Point(0, 0), Point(1, 1)),
        (Point(0, 1), Point(1, 0)), (Point(0, 1), Point(1, 1)),
    }


def test_full_net_derives_no_order():
    net = build_full_net(CausalLattice(3, 1), cell_dim=2, n_cells=1)
    report = derive_causal_order(net)
    assert report.future_pairs == []
    assert not report.matches_geometric
    assert len(report.mismatches) == len(report.geometric_pairs) == 3


def test_net_rejects_bad_supports():
    lat = CausalLattice(2, 1)
    with pytest.raises(ValueError):
        AlgebraNet(lat, 2, supports={Point(0, 0): (0, 5), Point(1, 0): (1,)})
    with pytest.raises(ValueError):
        AlgebraNet(lat, 2, supports={Point(0, 0): (0, 1)})  # (1,0) missing


@pytest.mark.parametrize("make, message", [
    (lambda: AlgebraNet(CausalLattice(1, 2), 1), "cell dimension must be at least 2"),
    (lambda: AlgebraNet(CausalLattice(1, 2), 2, cells=[Point(0, 0), Point(0, 0)]),
     "tensor cells must be distinct"),
    (lambda: AlgebraNet(CausalLattice(1, 2), 2, supports={Point(0, 0): [0, 0]}),
     "support of Point(tau=0, x=0) repeats a cell"),
    (lambda: build_full_net(CausalLattice(1, 2), 2, n_cells=3),
     "lattice has fewer points than requested cells"),
], ids=["cell-dim", "repeated-cells", "repeated-support-cell", "full-net-cells"])
def test_refusals(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
