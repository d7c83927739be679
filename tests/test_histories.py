"""Tests for history operators, tree enumeration, and history sampling."""

import json

import numpy as np
import pytest

from eventnet import (
    ActualEvent,
    BranchOverflowError,
    CausalLattice,
    CommutationError,
    DimensionMismatchError,
    Foliation,
    NullBranchError,
    Operator,
    Point,
    PotentialEvent,
    Relation,
    SCENARIO_BUILDERS,
    State,
    apply_propagator,
    build_full_net,
    build_scenario,
    build_tensor_net,
    causal_relate,
    collapse,
    enumerate_tree,
    epr_overlap_scenario,
    epr_scenario,
    foliate,
    history_operator,
    history_probability,
    mixture_defect,
    propagate_state,
    sample_history,
    sample_paths,
    two_leaf_chain,
)
from eventnet import histories, linalg
from eventnet.cli import main
from eventnet.events import detect_event
from eventnet.histories import _branch_point
from eventnet.linalg import PAULI_X, partial_trace, random_unitary
from eventnet.policy import NumericPolicy

import oracles


def _actual(point, proj, label=0):
    return ActualEvent(point=point, label=label, projection=Operator(proj),
                       born_prob=1.0)


P0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


# ---------------------------------------------------------------------------
# History operators
# ---------------------------------------------------------------------------

def test_history_operator_uses_causal_order():
    early = _actual(Point(0, 0), P0)
    late = _actual(Point(1, 0), PLUS)
    expected = PLUS @ P0  # earliest acts first, i.e. rightmost
    for order in ([early, late], [late, early]):
        hist = history_operator(order)
        assert np.max(np.abs(hist.matrix - expected)) < 1e-15
        assert hist.events[0].point == Point(0, 0)


def test_history_operator_rejects_duplicate_points():
    with pytest.raises(ValueError):
        history_operator([_actual(Point(0, 0), P0), _actual(Point(0, 0), PLUS)])


def test_history_operator_rejects_missing_points():
    with pytest.raises(ValueError):
        history_operator([_actual(None, P0)])


def test_history_operator_flags_noncommuting_spacelike():
    lat = CausalLattice(1, 2)
    hist = history_operator([_actual(Point(0, 0), P0), _actual(Point(0, 1), PLUS)],
                            lat)
    assert len(hist.spacelike_norms) == 1
    assert hist.spacelike_norms[0][2] == pytest.approx(0.5)
    assert hist.flagged


def test_history_operator_clean_for_disjoint_factors():
    lat = CausalLattice(1, 2)
    left = np.kron(P0, np.eye(2, dtype=complex))
    right = np.kron(np.eye(2, dtype=complex), PLUS)
    hist = history_operator([_actual(Point(0, 0), left), _actual(Point(0, 1), right)],
                            lat)
    assert hist.spacelike_norms[0][2] == 0.0
    assert not hist.flagged


def test_history_probability_is_squared_norm():
    rho = State.diagonal([0.75, 0.25])
    hist = history_operator([_actual(Point(0, 0), PLUS)])
    h = hist.matrix
    manual = float(np.trace(rho.rho @ h.conj().T @ h).real)
    assert history_probability(rho, hist) == pytest.approx(manual)
    assert manual == pytest.approx(0.5)


def test_propagate_state_renormalizes():
    rho = State.diagonal([0.75, 0.25])
    hist = history_operator([_actual(Point(0, 0), P0)])
    after = propagate_state(rho, hist)
    assert np.max(np.abs(after.rho - np.diag([1.0, 0.0]))) < 1e-12


def test_propagate_state_rejects_null_history():
    rho = State.from_vector(np.array([0.0, 1.0], dtype=complex))
    hist = history_operator([_actual(Point(0, 0), P0)])
    with pytest.raises(Exception):
        propagate_state(rho, hist)


def test_empty_history_is_refused():
    # its operator would be 1x1 and broadcast over every entry of the state
    sc = epr_scenario()
    with pytest.raises(ValueError):
        history_probability(sc.initial, history_operator([]))


def test_apply_propagator_checks_unitarity():
    rho = State.diagonal([0.75, 0.25])
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    rotated = apply_propagator(hadamard, rho)
    assert rotated.rho[0, 1] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        apply_propagator(np.diag([1.0, 2.0]).astype(complex), rho)


def test_actual_event_takes_a_plain_matrix():
    rho = State.diagonal([0.75, 0.25])
    plain = ActualEvent(Point(0, 0), 0, P0, 0.75)
    wrapped = _actual(Point(0, 0), P0)
    assert isinstance(plain.projection, Operator)
    assert np.array_equal(history_operator([plain]).matrix, history_operator([wrapped]).matrix)
    assert np.array_equal(collapse(rho, plain).rho, collapse(rho, wrapped).rho)


def _mismatched_call(case):
    # every input lives on 4 dimensions and the state (or the first event) on 2
    rho = State.diagonal([0.75, 0.25])
    ambient = np.kron(P0, np.eye(2))
    wide = [_actual(Point(0, 0), ambient)]
    return {
        "collapse": lambda: collapse(rho, wide[0]),
        "history_probability": lambda: history_probability(rho, history_operator(wide)),
        "propagate_state": lambda: propagate_state(rho, history_operator(wide)),
        "history_operator": lambda: history_operator([_actual(Point(1, 0), P0)] + wide),
        "apply_propagator": lambda: apply_propagator(np.eye(4), rho),
        "mixture_defect projections":
            lambda: mixture_defect(rho, [ambient, np.eye(4) - ambient], [np.eye(2)]),
        "mixture_defect test operators":
            lambda: mixture_defect(rho, [P0, np.eye(2) - P0], [np.eye(4)]),
    }[case]


@pytest.mark.parametrize("case", ["collapse", "history_probability", "propagate_state",
                                  "history_operator", "apply_propagator",
                                  "mixture_defect projections", "mixture_defect test operators"])
def test_ambient_api_refuses_operators_off_the_state(case):
    with pytest.raises(DimensionMismatchError):
        _mismatched_call(case)()


# ---------------------------------------------------------------------------
# Tree enumeration
# ---------------------------------------------------------------------------

def test_tree_product_state_single_level():
    net = build_tensor_net(CausalLattice(2, 1))
    rho_a = np.diag([0.6, 0.4]).astype(complex)
    rho_b = np.diag([0.9, 0.1]).astype(complex)
    initial = State(np.kron(rho_a, rho_b))
    tree = enumerate_tree(net, foliate(net.lattice), initial)
    # the first point sees the whole nondegenerate product spectrum;
    # every branch is then pure, so the second leaf adds nothing
    leaves = tree.leaves()
    assert len(leaves) == 4
    probs = sorted((leaf.cum_prob for leaf in leaves), reverse=True)
    assert np.allclose(probs, [0.54, 0.36, 0.06, 0.04], atol=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert tree.pruned_mass == 0.0
    for events, _ in tree.leaf_paths():
        assert len(events) == 1


def test_tree_two_level_chain_rule():
    sc = two_leaf_chain()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)
    paths = tree.leaf_paths()
    assert len(paths) == 8
    total = 0.0
    for events, prob in paths:
        assert len(events) == 2
        assert events[0].point == Point(0, 0) and events[1].point == Point(1, 0)
        # chain rule: cumulative probability == product of Born weights
        assert prob == pytest.approx(events[0].born_prob * events[1].born_prob,
                                     abs=1e-14)
        # and == the history-operator normalization on the initial state
        hist = history_operator(events, sc.net.lattice)
        assert history_probability(sc.initial, hist) == pytest.approx(prob, abs=1e-12)
        total += prob
    assert total == pytest.approx(1.0, abs=1e-12)
    assert tree.spectrum_dims == [2, 4]


def test_tree_children_prob_sums():
    sc = two_leaf_chain()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)

    def walk(node):
        if node.children:
            assert node.children_prob_sum == pytest.approx(1.0, abs=1e-10)
            for c in node.children:
                walk(c)

    walk(tree.root)


def test_tree_epr_imposed_families():
    sc = epr_scenario()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed)
    paths = tree.leaf_paths()
    assert len(paths) == 4
    for events, prob in paths:
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert len(events) == 2
    assert tree.max_commutator == 0.0
    assert tree.pruned_mass == 0.0


def test_tree_prunes_invisible_outcomes():
    net = build_full_net(CausalLattice(1, 1), cell_dim=2, n_cells=1)
    fam = PotentialEvent((P0, np.eye(2, dtype=complex) - P0))
    weak = 2e-10  # below prob_floor
    initial = State.diagonal([1.0 - weak, weak])
    tree = enumerate_tree(net, foliate(net.lattice), initial,
                          imposed={Point(0, 0): fam})
    leaves = tree.leaves()
    assert len(leaves) == 1
    assert leaves[0].cum_prob == pytest.approx(1.0 - weak, abs=1e-15)
    assert tree.pruned_mass == pytest.approx(weak, abs=1e-15)


def test_tree_branch_cap():
    sc = two_leaf_chain()
    with pytest.raises(BranchOverflowError):
        enumerate_tree(sc.net, sc.foliation, sc.initial, policy=NumericPolicy(branch_cap=3))


def test_tree_commutation_abort():
    sc = epr_overlap_scenario()
    with pytest.raises(CommutationError):
        enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed,
                       commutation="abort")
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed,
                          commutation="warn")
    assert tree.max_commutator == pytest.approx(0.5, abs=1e-12)


def test_tree_rejects_unknown_commutation_policy():
    sc = epr_scenario()
    with pytest.raises(ValueError):
        enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed,
                       commutation="ignore")


def _bad_engine_input(sc, case):
    if case == "imposed off the foliation":
        return {"imposed": {Point(3, 3): sc.imposed[Point(0, 0)]}}
    if case == "propagator key not a leaf":
        return {"propagators": {1: np.eye(sc.net.dim)}}
    if case == "imposed on the factor dimension":
        return {"imposed": {Point(0, 0): PotentialEvent([P0, np.eye(2) - P0])}}
    if case == "state of the wrong size":
        return {"initial": State.diagonal([0.75, 0.25])}
    return {"propagators": {0: np.eye(2)}}


@pytest.mark.parametrize("case, error", [
    ("imposed off the foliation", ValueError),
    ("propagator key not a leaf", ValueError),
    ("imposed on the factor dimension", DimensionMismatchError),
    ("propagator of the wrong size", DimensionMismatchError),
    ("state of the wrong size", DimensionMismatchError),
])
def test_engine_refuses_inputs_off_the_net(case, error):
    sc = epr_scenario()
    inputs = {"initial": sc.initial, **_bad_engine_input(sc, case)}
    for run in (enumerate_tree, lambda *a, **kw: sample_paths(*a, n_samples=10, seed=1, **kw)):
        with pytest.raises(error):
            run(sc.net, sc.foliation, **inputs)


P = Point
# leaves over the 2x2 lattice that are not a foliation of it, and the refusal each meets
NOT_A_FOLIATION = {
    "timelike points on one leaf": (((P(1, 0), P(0, 0)), (P(0, 1), P(1, 1))), "not spacelike"),
    "a point listed twice": (((P(0, 0), P(0, 1)), (P(0, 1), P(1, 1))), "twice"),
    "a later point in an earlier one's past": (((P(1, 0), P(1, 1)), (P(0, 0), P(0, 1))),
                                               "causal past"),
    "a point outside the lattice": (((P(0, 0), P(0, 1)), (P(1, 0), P(2, 1))), "outside"),
}


@pytest.mark.parametrize("case", sorted(NOT_A_FOLIATION))
def test_engine_refuses_leaves_that_are_not_a_foliation(case, monkeypatch):
    leaves, message = NOT_A_FOLIATION[case]
    net = build_tensor_net(CausalLattice(2, 2))
    initial = State.maximally_mixed(net.dim)
    grown = []
    monkeypatch.setattr(histories, "_branch_point",
                        lambda *args: grown.append(1) or _branch_point(*args))
    for run in (enumerate_tree, lambda *a: sample_paths(*a, n_samples=10, seed=1)):
        with pytest.raises(ValueError, match=message):
            run(net, Foliation(leaves), initial)
    assert not grown  # refused before any branching


@pytest.mark.parametrize("speed", [1, 2, 2**70])
def test_foliation_check_follows_causal_relate(speed, monkeypatch):
    lattice = CausalLattice(3, 3, speed)
    for block in (None, 1):  # every pair at once, and one row of pairs at a time
        if block:
            monkeypatch.setattr(linalg, "block_size", lambda per_item: block)
        for p in lattice.points():
            for q in lattice.points():
                relation = causal_relate(lattice, p, q)
                for leaves, refused in ((((p, q),), relation is not Relation.SPACELIKE),
                                        (((p,), (q,)), relation in (Relation.EQUAL,
                                                                   Relation.PAST))):
                    if refused:
                        with pytest.raises(ValueError):
                            histories._check_foliation(lattice, Foliation(leaves))
                    else:
                        histories._check_foliation(lattice, Foliation(leaves))


def test_shipped_foliations_are_accepted():
    for name in SCENARIO_BUILDERS:
        sc = build_scenario(name)
        histories._check_foliation(sc.net.lattice, sc.foliation)
    for tau in (1, 2, 3):
        for x in (1, 2, 3):
            lattice = CausalLattice(tau, x)
            histories._check_foliation(lattice, foliate(lattice))


def test_propagator_rotates_first_detection():
    net = build_full_net(CausalLattice(1, 1), cell_dim=2, n_cells=1)
    initial = State.diagonal([0.75, 0.25])
    tree = enumerate_tree(net, foliate(net.lattice), initial,
                          propagators={0: PAULI_X})
    top = tree.root.children[0]
    assert top.cond_prob == pytest.approx(0.75)
    # the flip moved the heavy weight onto the second basis vector
    assert np.max(np.abs(top.actual.projection.entries - np.diag([0.0, 1.0]))) < 1e-12


def test_propagator_must_be_unitary():
    net = build_full_net(CausalLattice(1, 1), cell_dim=2, n_cells=1)
    initial = State.diagonal([0.75, 0.25])
    with pytest.raises(ValueError):
        enumerate_tree(net, foliate(net.lattice), initial,
                       propagators={0: np.diag([1.0, 2.0]).astype(complex)})
    with pytest.raises(ValueError):
        sample_history(net, foliate(net.lattice), initial, seed=1,
                       propagators={0: np.diag([1.0, 2.0]).astype(complex)})


def _with_entry(mat, value):
    """A complex copy of ``mat`` whose entry (0, 1) is ``value``."""
    out = np.array(mat, dtype=complex)
    out[0, 1] = value
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
@pytest.mark.parametrize("make, message", [
    (lambda bad: State(_with_entry(np.eye(2) / 2, bad)),
     "state is not self-adjoint (deviation inf)"),
    (lambda bad: PotentialEvent([_with_entry(np.diag([1.0, 0.0]), bad), np.diag([0.0, 1.0])]),
     "projection is not self-adjoint"),
    (lambda bad: enumerate_tree(build_full_net(CausalLattice(1, 1), cell_dim=2, n_cells=1),
                                foliate(CausalLattice(1, 1)), State.diagonal([0.75, 0.25]),
                                propagators={0: _with_entry(np.eye(2), bad)}),
     "propagator has a NaN or infinite entry"),
], ids=["state", "potential-event", "propagator"])
def test_non_finite_entries_are_refused(make, message, value):
    with pytest.raises(ValueError) as exc:
        make(value)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Factor-local branching against the dense ambient reference
# ---------------------------------------------------------------------------

COARSE = NumericPolicy(prob_floor=1e-3)
DEFAULT = NumericPolicy()


def _cone_case(extent_tau, extent_x, seed=3):
    """Cone net with a seeded full-rank random state."""
    net = build_tensor_net(CausalLattice(extent_tau, extent_x))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((net.dim, net.dim)) + 1j * rng.standard_normal((net.dim, net.dim))
    rho = g @ g.conj().T
    return net, State(rho / np.trace(rho).real)


def _tiny_eigenvalue_cone(seed):
    """2x2 cone net with four unit eigenvalues and twelve in [1e-8.5, 1e-6].

    Some outcomes then weigh ~1e-6, where normalizing a collapsed branch by
    the Born weight of the support state misses unit trace by ~1e-12.
    """
    net = build_tensor_net(CausalLattice(2, 2))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((net.dim, net.dim)) + 1j * rng.standard_normal((net.dim, net.dim))
    v = np.linalg.qr(g)[0]
    spectrum = np.array([1.0] * 4 + [10 ** rng.uniform(-8.5, -6) for _ in range(12)])
    spectrum /= spectrum.sum()
    return net, (v * spectrum) @ v.conj().T


def test_tiny_eigenvalue_branches_keep_unit_trace():
    for seed in range(6):
        net, rho = _tiny_eigenvalue_cone(seed)
        tree = enumerate_tree(net, foliate(net.lattice), State(rho))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            assert abs(np.trace(node.state_after.rho).real - 1.0) <= 1e-14, seed


def test_tiny_eigenvalue_cone_runs_through_the_cli(tmp_path):
    net, rho = _tiny_eigenvalue_cone(63)
    tree = enumerate_tree(net, foliate(net.lattice), State(rho))
    assert tree.leaves()
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "net": {"kind": "cone", "extent_tau": 2, "extent_x": 2},
        "initial_state": {"kind": "matrix",
                          "entries": [[[z.real, z.imag] for z in row] for row in rho]},
    }))
    assert main(["--config", str(path)]) == 0


def _assert_matches_dense(net, tree, dense, tol=1e-12):
    root, pruned, dims, norms = dense
    assert tree.spectrum_dims == dims
    assert abs(tree.pruned_mass - pruned) <= tol
    assert [row[:3] for row in tree.commutation_norms] == [row[:3] for row in norms]
    for got, want in zip(tree.commutation_norms, norms):
        assert abs(got[3] - want[3]) <= tol
    stack = [(tree.root, root)]
    while stack:
        node, ref = stack.pop()
        assert (node.leaf_index, node.point, node.event_dim) == \
            (ref.leaf_index, ref.point, ref.event_dim)
        assert abs(node.cond_prob - ref.cond_prob) <= tol
        assert abs(node.cum_prob - ref.cum_prob) <= tol
        assert (node.children_prob_sum is None) == (ref.children_prob_sum is None)
        if ref.children_prob_sum is not None:
            assert abs(node.children_prob_sum - ref.children_prob_sum) <= tol
        reduced = partial_trace(ref.rho, node.state_cells, net.n_cells, net.cell_dim)
        assert np.max(np.abs(node.state_after.rho - reduced)) <= tol
        if ref.label is not None:
            assert node.actual.label == ref.label
            assert np.max(np.abs(node.actual.projection.entries - ref.projection)) <= tol
        assert len(node.children) == len(ref.children)
        stack.extend(zip(node.children, ref.children))


@pytest.fixture(scope="module")
def cone_2x3():
    net, initial = _cone_case(2, 3)
    tree = enumerate_tree(net, foliate(net.lattice), initial, policy=COARSE)
    return net, initial, tree


# every branch of the 2x2 cone (seed 3) ends on leaf 0 at this floor, so the
# frontier empties before the last leaf
ENDS_ON_LEAF_0 = NumericPolicy(prob_floor=0.1)


@pytest.mark.parametrize("extents, policy", [((2, 2), COARSE), ((2, 3), COARSE),
                                             ((2, 2), ENDS_ON_LEAF_0)],
                         ids=["extents0", "extents1", "ends-on-leaf-0"])
def test_cone_tree_matches_dense_reference(extents, policy, cone_2x3):
    if extents == (2, 3):
        net, initial, tree = cone_2x3
    else:
        net, initial = _cone_case(*extents)
        tree = enumerate_tree(net, foliate(net.lattice), initial, policy=policy)
    dense = oracles.enumerate_tree_dense(net, foliate(net.lattice), initial, policy=policy)
    _assert_matches_dense(net, tree, dense)
    assert tree.max_commutator > 0.1  # overlapping spacelike supports on leaf 0
    last = [leaf for leaf in tree.leaves() if leaf.point == net.lattice.points()[-1]]
    if policy is COARSE:
        # after the last point no later point touches any cell
        assert last and all(leaf.state_cells == () for leaf in last)
        return
    leaves = tree.leaves()
    assert not last and {leaf.leaf_index for leaf in leaves} == {0}
    assert all(leaf.children_prob_sum is not None for leaf in leaves)  # all dead
    assert (len(leaves), round(tree.pruned_mass, 4)) == (5, 0.1808)
    # 18% of the mass is pruned beside kept outcomes: 10^4 draws land on it
    fol = foliate(net.lattice)
    with pytest.raises(NullBranchError):
        sample_paths(net, fol, initial, 10**4, 1, policy=policy)
    # one draw lands on pruned mass or on an enumerated leaf
    paths = {tuple((e.point.tau, e.point.x, e.label) for e in events)
             for events, _ in tree.leaf_paths()}
    landed = 0
    for seed in range(10):
        try:
            counts = sample_paths(net, fol, initial, 1, seed, policy=policy).counts
        except NullBranchError:
            continue
        assert set(counts) <= paths
        landed += 1
    assert landed


def test_tree_mass_is_conserved_when_all_outcomes_are_pruned(cone_2x3):
    net, _, tree = cone_2x3
    leaves = tree.leaves()
    # nodes whose every outcome fell below prob_floor stay leaves
    assert any(leaf.children_prob_sum is not None for leaf in leaves)
    total = sum(leaf.cum_prob for leaf in leaves) + tree.pruned_mass
    assert total == pytest.approx(1.0, abs=COARSE.tol_tree)


def test_propagator_tree_matches_dense_reference():
    net, initial = _cone_case(2, 2, seed=5)
    u = random_unitary(net.dim, np.random.default_rng(8))
    fol = foliate(net.lattice)
    tree = enumerate_tree(net, fol, initial, policy=COARSE, propagators={1: u})
    dense = oracles.enumerate_tree_dense(net, fol, initial, policy=COARSE,
                                         propagators={1: u})
    _assert_matches_dense(net, tree, dense)
    # the ambient propagator before leaf 1 keeps every cell until it runs
    first = tree.root.children
    assert first and all(len(n.state_cells) == net.n_cells
                         for c in first for n in [c] + c.children)
    run = sample_history(net, fol, initial, seed=2, policy=COARSE, propagators={1: u})
    paths = {tuple((e.point, e.label) for e in events): prob
             for events, prob in tree.leaf_paths()}
    assert run.probability == pytest.approx(paths[tuple((e.point, e.label)
                                                        for e in run.events)], abs=1e-12)
    assert run.final_state.dim == net.cell_dim ** len(run.final_cells)


@pytest.mark.parametrize("commutation", ["warn", "abort"])
@pytest.mark.parametrize("name", ["epr", "epr-overlap", "two-leaf-chain"])
def test_scenario_tree_matches_dense_reference(name, commutation):
    sc = build_scenario(name)
    kwargs = dict(policy=COARSE, imposed=sc.imposed, commutation=commutation)
    try:
        dense = oracles.enumerate_tree_dense(sc.net, sc.foliation, sc.initial, **kwargs)
    except CommutationError:
        with pytest.raises(CommutationError):
            enumerate_tree(sc.net, sc.foliation, sc.initial, **kwargs)
        return
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial, **kwargs)
    _assert_matches_dense(sc.net, tree, dense)


def test_cone_abort_matches_dense_reference():
    net, initial = _cone_case(2, 2)
    fol = foliate(net.lattice)
    with pytest.raises(CommutationError):
        oracles.enumerate_tree_dense(net, fol, initial, policy=COARSE, commutation="abort")
    with pytest.raises(CommutationError):
        enumerate_tree(net, fol, initial, policy=COARSE, commutation="abort")


def _leaf_entries(root, leaf_index):
    """Branches of a dense tree that enter leaf ``leaf_index``: alive at the end of the leaf before."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        dead = not node.children and node.children_prob_sum is not None
        if (node.leaf_index == leaf_index - 1 and not dead
                and all(c.leaf_index == leaf_index for c in node.children)):
            out.append(node)
    return out


def _entry_detections(net, fol, root, leaf_index, policy):
    """Per point of the leaf, the detection on every branch entering it (dense tree)."""
    entries = _leaf_entries(root, leaf_index)
    return {p: [detect_event(net, p, State(n.rho, policy=policy), policy=policy)
                for n in entries]
            for p in fol.leaves[leaf_index]}


def _product_cone_state(seed):
    """2x2 cone state alpha (cells 0, 2) tensor beta (cells 1, 3), tuned to a cluster.

    beta's spectrum is chosen so that two products of the spectra on cell 2
    and on cells (1, 3) coincide: the family at (0, 1) has one rank-2
    outcome, which leaves cell 2 mixed on some branches and pure on others.
    """
    rng = np.random.default_rng(seed)
    u = random_unitary(4, rng)
    alpha = (u * np.array([0.4, 0.3, 0.2, 0.1])) @ u.conj().T
    mu = np.linalg.eigvalsh(partial_trace(alpha, (1,), 2, 2))
    nu = np.array([mu[1], mu[0], 0.9 * mu[0], 0.7 * mu[1]])
    v = random_unitary(4, rng)
    beta = (v * (nu / nu.sum())) @ v.conj().T
    full = np.kron(alpha, beta).reshape([2] * 8)        # slots (0, 2, 1, 3)
    return State(full.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16))


@pytest.mark.parametrize("seed", [0, 1])
def test_family_firing_on_some_frontier_branches_matches_dense(seed):
    net = build_tensor_net(CausalLattice(2, 2))
    fol = foliate(net.lattice)
    initial = _product_cone_state(seed)
    dense = oracles.enumerate_tree_dense(net, fol, initial, policy=COARSE)
    fired = [d.happened for d in _entry_detections(net, fol, dense[0], 1, COARSE)[Point(1, 0)]]
    assert any(fired) and not all(fired)
    assert 7 in dense[2]  # the rank-2 outcome at (0, 1)
    tree = enumerate_tree(net, fol, initial, policy=COARSE)
    _assert_matches_dense(net, tree, dense)


def test_outcome_counts_that_differ_across_the_stack_match_dense():
    # two cells; the two heaviest eigenvalues sit 4e-7 apart (one rank-2
    # outcome at (0, 0)), and the branches entering (1, 0) see cell 1 as a
    # 1e-13-split pair (one outcome, no event) or as (0.7, 0.3)
    net = build_tensor_net(CausalLattice(2, 1))
    fol = foliate(net.lattice)
    a, b = np.sqrt(0.5 + 4e-8), np.sqrt(0.5 - 4e-8)
    c, e = np.sqrt(0.7), np.sqrt(0.3)
    basis = np.array([[a, 0, 0, b], [b, 0, 0, -a], [0, c, e, 0], [0, e, -c, 0]],
                     dtype=complex).T
    rng = np.random.default_rng(12)
    turn = np.kron(random_unitary(2, rng), random_unitary(2, rng)) @ basis
    spectrum = np.array([0.35 + 2e-7, 0.35 - 2e-7, 0.2, 0.1])
    initial = State((turn * spectrum) @ turn.conj().T)
    dense = oracles.enumerate_tree_dense(net, fol, initial, policy=DEFAULT)
    detections = _entry_detections(net, fol, dense[0], 1, DEFAULT)[Point(1, 0)]
    assert sorted(len(d.probabilities) for d in detections) == [1, 2, 2]
    assert sorted(d.happened for d in detections) == [False, True, True]
    tree = enumerate_tree(net, fol, initial)
    assert tree.spectrum_dims == [1, 2, 3]
    _assert_matches_dense(net, tree, dense)
    top = tree.root.children[0]
    assert np.linalg.matrix_rank(top.actual.factor, tol=1e-9) == 2
    assert top.children == []  # no event on cell 1 after the rank-2 outcome


@pytest.mark.parametrize("gate_cells", [(2, 3), (1, 2), (1, 3), (1, 2, 3)])
def test_local_gate_tree_matches_dense_reference(gate_cells):
    net, initial = _cone_case(2, 2, seed=5)
    gate = net.embed(random_unitary(2 ** len(gate_cells), np.random.default_rng(8)), gate_cells)
    fol = foliate(net.lattice)
    tree = enumerate_tree(net, fol, initial, policy=COARSE, propagators={1: gate})
    dense = oracles.enumerate_tree_dense(net, fol, initial, policy=COARSE,
                                         propagators={1: gate})
    _assert_matches_dense(net, tree, dense)
    # the gate before leaf 1 keeps only its own cells beside those leaf 1 reads
    kept = {(0, 0): (1, 2, 3), (0, 1): tuple(sorted({2, 3} | set(gate_cells))),
            (1, 0): (3,), (1, 1): ()}
    stack = list(tree.root.children)
    assert stack
    while stack:
        node = stack.pop()
        assert node.state_cells == kept[node.point]
        stack.extend(node.children)


def test_imposed_family_on_a_cone_matches_dense():
    net, initial = _cone_case(2, 2, seed=6)
    fol = foliate(net.lattice)
    pa = np.kron(np.diag([1.0, 0.0]), random_unitary(2, np.random.default_rng(1)))
    proj = pa @ np.diag([1.0, 0.0, 1.0, 0.0]) @ pa.conj().T      # rank 2 on cells (1, 2)
    family = PotentialEvent([net.embed(proj, (1, 2)), net.embed(np.eye(4) - proj, (1, 2))],
                            labels=("in", "out"))
    imposed = {Point(0, 1): family}
    tree = enumerate_tree(net, fol, initial, policy=COARSE, imposed=imposed)
    dense = oracles.enumerate_tree_dense(net, fol, initial, policy=COARSE, imposed=imposed)
    _assert_matches_dense(net, tree, dense)
    assert tree.max_commutator > 0.1  # (0, 0) reads cell 2 too
    imposed_nodes = [n for first in tree.root.children for n in first.children]
    assert imposed_nodes and all(n.actual.support == (1, 2) for n in imposed_nodes)


def test_branch_cap_counts_the_live_frontier_after_each_point():
    # the chain has 4 live branches after (0, 0) and 8 after (1, 0)
    sc = two_leaf_chain()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial, policy=NumericPolicy(branch_cap=8))
    assert len(tree.leaves()) == 8
    for cap in (3, 7):
        with pytest.raises(BranchOverflowError):
            enumerate_tree(sc.net, sc.foliation, sc.initial,
                           policy=NumericPolicy(branch_cap=cap))
    with pytest.raises(BranchOverflowError):
        sample_paths(sc.net, sc.foliation, sc.initial, 1000, seed=1,
                     policy=NumericPolicy(branch_cap=7))


def test_zero_weight_outcomes_are_pruned_at_a_zero_floor():
    # a pure product state: every detection has a zero-weight cluster, which
    # passes the happened test at prob_floor=0 but must not be collapsed
    net = build_tensor_net(CausalLattice(2, 2))
    psi = np.zeros(net.dim, dtype=complex)
    psi[5] = 1.0
    tree = enumerate_tree(net, foliate(net.lattice), State.from_vector(psi),
                          policy=NumericPolicy(prob_floor=0.0))
    leaves = tree.leaves()
    assert sum(leaf.cum_prob for leaf in leaves) + tree.pruned_mass == pytest.approx(1.0)
    assert all(leaf.cum_prob > 0.0 for leaf in leaves)


def test_branch_states_are_checked_when_first_read(monkeypatch):
    sc = two_leaf_chain()
    built = []
    real_init = State.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(State, "__init__", counting_init)
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)
    assert built == []
    node = tree.root.children[0]
    assert node.state_after is node.state_after and len(built) == 1
    assert np.array_equal(node.state_after.rho, node.rho)
    bad = tree.root.children[1]
    bad.rho = bad.rho * 2.0
    with pytest.raises(ValueError):
        bad.state_after


def test_branch_states_drop_cells_no_later_point_touches():
    sc = two_leaf_chain()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)
    assert tree.root.state_cells == (0, 1)
    for first in tree.root.children:
        # cell 0 is done after (0, 0); (1, 0) reads cell 1 only
        assert first.state_cells == (1,)
        assert first.state_after.dim == 2
        assert first.actual.support == (0, 1)
        for second in first.children:
            assert second.state_cells == ()
            assert second.actual.support == (1,)
            assert second.actual.factor.shape == (2, 2)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_history_walks_the_tree():
    sc = two_leaf_chain()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)
    tree_paths = {tuple((e.point, e.label) for e in events): prob
                  for events, prob in tree.leaf_paths()}
    run = sample_history(sc.net, sc.foliation, sc.initial, seed=5)
    key = tuple((e.point, e.label) for e in run.events)
    assert key in tree_paths
    assert run.probability == pytest.approx(tree_paths[key], abs=1e-12)


def test_sample_history_seed_may_be_a_generator():
    sc = two_leaf_chain()
    a = sample_history(sc.net, sc.foliation, sc.initial, seed=np.random.default_rng(5))
    b = sample_history(sc.net, sc.foliation, sc.initial, seed=5)
    assert [e.label for e in a.events] == [e.label for e in b.events]
    assert np.array_equal(a.final_state.rho, b.final_state.rho)


def test_sample_history_deterministic_per_seed():
    sc = two_leaf_chain()
    a = sample_history(sc.net, sc.foliation, sc.initial, seed=11)
    b = sample_history(sc.net, sc.foliation, sc.initial, seed=11)
    assert [e.label for e in a.events] == [e.label for e in b.events]
    assert np.array_equal(a.final_state.rho, b.final_state.rho)


def test_sample_paths_frequencies():
    sc = epr_scenario()
    n = 2000
    summary = sample_paths(sc.net, sc.foliation, sc.initial, n, seed=17,
                           imposed=sc.imposed)
    assert sum(summary.counts.values()) == n
    freqs = summary.frequencies()
    assert len(freqs) == 4
    band = oracles.binomial_four_sigma(0.25, n)
    for key, f in freqs.items():
        assert abs(f - 0.25) < band, key


def test_sample_paths_deterministic_per_seed():
    sc = epr_scenario()
    a = sample_paths(sc.net, sc.foliation, sc.initial, 50, seed=23,
                     imposed=sc.imposed)
    b = sample_paths(sc.net, sc.foliation, sc.initial, 50, seed=23,
                     imposed=sc.imposed)
    assert a.counts == b.counts


def test_sample_paths_needs_positive_count():
    sc = epr_scenario()
    # a float or a bool is not a count, even when it is at least 1
    for n_samples in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="integer of at least 1"):
            sample_paths(sc.net, sc.foliation, sc.initial, n_samples, seed=1,
                         imposed=sc.imposed)


def _path_keys(tree):
    return {tuple((e.point.tau, e.point.x, e.label) for e in events): prob
            for events, prob in tree.leaf_paths()}


def test_samplers_prune_like_the_tree():
    # at this floor some outcomes of the chain fall below it and are pruned
    sc = two_leaf_chain()
    policy = NumericPolicy(prob_floor=0.05)
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial, policy=policy)
    assert tree.pruned_mass > 0.0
    paths = _path_keys(tree)
    returned = raised = 0
    for seed in range(300):
        try:
            run = sample_history(sc.net, sc.foliation, sc.initial, seed=seed, policy=policy)
        except NullBranchError:
            raised += 1
            continue
        returned += 1
        key = tuple((e.point.tau, e.point.x, e.label) for e in run.events)
        assert key in paths, seed
        assert run.probability == pytest.approx(paths[key], abs=1e-12)
    assert returned and raised
    with pytest.raises(NullBranchError):
        sample_paths(sc.net, sc.foliation, sc.initial, 1000, seed=1, policy=policy)


def test_sample_history_is_one_draw_of_sample_paths():
    sc = two_leaf_chain()
    for seed in range(5):
        run = sample_history(sc.net, sc.foliation, sc.initial, seed=seed)
        summary = sample_paths(sc.net, sc.foliation, sc.initial, 1, seed=seed)
        assert list(summary.counts) == [tuple((e.point.tau, e.point.x, e.label)
                                              for e in run.events)]


def test_sample_history_rejects_unknown_commutation_policy():
    sc = two_leaf_chain()
    with pytest.raises(ValueError):
        sample_history(sc.net, sc.foliation, sc.initial, seed=1, commutation="bogus")


def test_sample_paths_match_cone_tree_within_five_sigma():
    net, initial = _cone_case(2, 2)
    fol = foliate(net.lattice)
    paths = _path_keys(enumerate_tree(net, fol, initial))
    n = 100_000
    summary = sample_paths(net, fol, initial, n, seed=4)
    assert sum(summary.counts.values()) == n
    assert set(summary.counts) <= set(paths)
    for key, p in paths.items():
        freq = summary.counts.get(key, 0) / n
        assert abs(freq - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n), key


def test_sample_paths_go_past_the_branch_cap():
    net, initial = _cone_case(2, 3)
    fol = foliate(net.lattice)
    with pytest.raises(BranchOverflowError):
        enumerate_tree(net, fol, initial, policy=NumericPolicy(branch_cap=200))
    a = sample_paths(net, fol, initial, 100, seed=6, policy=NumericPolicy(branch_cap=200))
    b = sample_paths(net, fol, initial, 100, seed=6, policy=NumericPolicy(branch_cap=200))
    assert sum(a.counts.values()) == 100
    assert a.counts == b.counts
    with pytest.raises(BranchOverflowError):
        sample_paths(net, fol, initial, 100, seed=6, policy=NumericPolicy(branch_cap=2))
