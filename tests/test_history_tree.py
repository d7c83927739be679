"""Tests for the row record of the history tree and the objects built from it."""

import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from eventnet import (ActualEvent, AlgebraNet, BranchNode, CausalLattice, State, build_scenario,
                      build_tensor_net, enumerate_tree, epr_scenario, foliate, histories, linalg,
                      sample_history, sample_paths, two_leaf_chain)
from eventnet.cli import _net_from_config, _state_from_config, _tree_section, load_config, main
from eventnet.histories import TreeRows
from eventnet.linalg import partial_trace, random_unitary
from eventnet.policy import NumericPolicy
from eventnet.spacetime import Point

CONFIGS = Path(__file__).parent / "configs"


def test_enumeration_builds_node_objects_only_when_the_root_is_read(monkeypatch):
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
    sc = two_leaf_chain()
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial)
    assert events == [] and nodes == []
    root = tree.root
    # the root, and one node per event: 4 outcomes, each with 2 below it
    assert len(nodes) == 1 + len(events) == 1 + 4 + 4 * 2
    assert tree.root is root
    first, second = tree.leaves(), tree.leaves()
    assert all(a is b for a, b in zip(first, second)) and len(first) == 8
    assert all(a.actual is b.actual for a, b in zip(first, second))


def test_sample_paths_refuses_more_draws_than_a_multinomial_takes():
    sc = epr_scenario()
    with pytest.raises(ValueError, match="at most 9223372036854775807"):
        sample_paths(sc.net, sc.foliation, sc.initial, 2**63, seed=1, imposed=sc.imposed)
    summary = sample_paths(sc.net, sc.foliation, sc.initial, 2**63 - 1, seed=1,
                           imposed=sc.imposed)
    assert sum(summary.counts.values()) == 2**63 - 1


def _seeded_cone_tree(seed, prob_floor, gate_seed=None):
    net = build_tensor_net(CausalLattice(2, 2), 2)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((net.dim, net.dim)) + 1j * rng.standard_normal((net.dim, net.dim))
    rho = g @ g.conj().T
    gates = (None if gate_seed is None
             else {1: random_unitary(net.dim, np.random.default_rng(gate_seed))})
    return enumerate_tree(net, foliate(net.lattice), State(rho / np.trace(rho).real),
                          policy=NumericPolicy(prob_floor=prob_floor), propagators=gates)


def test_leaf_steps_are_the_leaf_paths_read_off_the_rows(monkeypatch):
    sc = epr_scenario()
    # a 2x3 cone whose point (0, 1) has 16 outcomes, so outcome 10 comes after outcome 2
    cone = build_tensor_net(CausalLattice(2, 3), 2)
    many = State.diagonal(json.loads((CONFIGS / "cone-2x3-many-outcomes.json").read_text())
                          ["initial_state"]["weights"])
    skipping = build_tensor_net(CausalLattice(2, 2))
    dying = _cone(3, 0, prob_floor=0.02)
    trees = [enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed),
             _seeded_cone_tree(0, 1e-9), _seeded_cone_tree(0, 0.01),
             _seeded_cone_tree(5, 1e-3, gate_seed=8),
             enumerate_tree(cone, foliate(cone.lattice), many),
             enumerate_tree(skipping, foliate(skipping.lattice), _skipping_cone_state(),
                            policy=NumericPolicy(prob_floor=1e-3)),
             # the tree sample_paths grows for 1000 draws at seed 1
             histories._grow(cone, foliate(cone.lattice), many, NumericPolicy(), None, None,
                             "warn", draws=1000, gen=np.random.default_rng(1))[0],
             # every branch dies at (0, 1), so the last points add no row
             enumerate_tree(*dying[:3], **dying[3])]
    walked = [[(tuple((e.point.tau, e.point.x, e.label) for e in events), prob)
               for events, prob in tree.leaf_paths()] for tree in trees]
    for tree in trees:
        tree._root = None  # drop the objects leaf_paths built
    monkeypatch.setattr(ActualEvent, "from_isometry", None)
    steps = [tree.leaf_steps() for tree in trees]
    assert steps == walked
    # dead leaves end some paths early, so the walk's order is not the rows' order
    assert any(len(a) > len(b) for (a, _), (b, _) in zip(steps[2], steps[2][1:]))
    labels = [[label for *_, label in path] for path, _ in steps[4]]
    assert labels == sorted(labels) and max(map(max, labels)) > 10
    # some branch of the skipping tree goes through (1, 1) without an event at (1, 0)
    assert any((1, 0) not in points and (1, 1) in points
               for points in ({(t, x) for t, x, _ in path} for path, _ in steps[5]))
    assert not trees[7].rows()[1][-1].parent
    summary = sample_paths(cone, foliate(cone.lattice), many, 1000, 1)
    assert list(summary.counts) == [path for path, _ in steps[6]]
    assert len(summary.counts) > 10


def test_a_tree_whose_root_is_its_only_leaf():
    # a pure product state: no reduced state is mixed, so no family fires anywhere
    net = build_tensor_net(CausalLattice(2, 2), 2)
    pure = np.zeros((net.dim, net.dim), dtype=complex)
    pure[0, 0] = 1.0
    tree = enumerate_tree(net, foliate(net.lattice), State(pure))
    assert not any(len(r.parent) for r in tree.rows()[1])
    assert tree.leaf_steps() == [((), 1.0)]
    assert sample_paths(net, foliate(net.lattice), State(pure), 10, 1).counts == {(): 10}


def test_leaf_steps_peak_is_about_its_result():
    # the seeded 2x3 cone at the default policy: 15 497 rows, 8192 leaves.  The
    # result holds a steps tuple and a float per leaf; reading the rows as lists
    # and sorting the leaves by per-row outcome tuples made the peak 3.0 times it
    net, fol, initial, _ = _cone(3, 0)
    tree = enumerate_tree(net, fol, initial)
    tree.leaf_steps()  # numpy's first calls allocate caches that outlive them
    tracemalloc.start()
    try:
        steps = tree.leaf_steps()
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == 8192 and 1 + sum(len(r.parent) for r in tree.rows()[1]) == 15497
    assert peak <= 2 * result, (peak, result)


# ---------------------------------------------------------------------------
# Bounded memory: rows keep no state, the collapse runs in blocks
# ---------------------------------------------------------------------------


def _cone(extent_x, seed, gate_seed=None, prob_floor=1e-3):
    """A 2 x ``extent_x`` cone with a seeded Ginibre state, and a propagator before leaf 1."""
    net = build_tensor_net(CausalLattice(2, extent_x), 2)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((net.dim, net.dim)) + 1j * rng.standard_normal((net.dim, net.dim))
    rho = g @ g.conj().T
    gates = (None if gate_seed is None
             else {1: random_unitary(net.dim, np.random.default_rng(gate_seed))})
    return (net, foliate(net.lattice), State(rho / np.trace(rho).real),
            dict(policy=NumericPolicy(prob_floor=prob_floor), propagators=gates))


def _growing(monkeypatch, grow):
    """The tree ``grow()`` makes, and every stack of children ``_collapse`` made meanwhile.

    A propagator also runs through ``_collapse`` (``gate=True``), but makes
    no children, so its stacks are not recorded.  It may overwrite the
    frontier it reads, which can be the last stack of children, so each
    stack is recorded as a copy taken when it was made.
    """
    made, collapse = [], histories._collapse

    def kept(*args, gate=False, **kwargs):
        out = collapse(*args, gate=gate, **kwargs)
        if not gate:
            made.append(out.copy())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(histories, "_collapse", kept)
        tree = grow()
    return tree, made


def _nodes_in_row_order(tree):
    """``tree.root`` and its descendants, one per row, in the order of ``tree.rows()``."""
    nodes, taken = [tree.root], Counter()
    for r in tree.rows()[1]:
        for p in r.parent:
            nodes.append(nodes[p].children[taken[p]])
            taken[p] += 1
    return nodes


def test_tree_rows_keep_no_state():
    assert "rho" not in TreeRows._fields
    net, fol, initial, kwargs = _cone(2, 3)
    sc = two_leaf_chain()
    for tree in (enumerate_tree(net, fol, initial, **kwargs),
                 enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed)):
        points = tree.rows()[1]
        for r in points:
            # the point's family stack is the only array of more than one axis a row keeps
            assert [name for name, value in zip(r._fields, r)
                    if isinstance(value, np.ndarray) and value.ndim > 1] == ["family"]
        # one stack per point, indexed by entry branch, not one isometry per row
        assert len({id(r.family) for r in points}) == len(points)
        assert all(len(r.family) > max(r.origin, default=-1) for r in points)
        assert any(len(r.parent) > len(r.family) for r in points)
        nodes = iter(_nodes_in_row_order(tree)[1:])
        for r in points:
            for o, k in zip(r.origin, r.outcome):
                isometry = next(nodes).actual.isometry
                assert np.shares_memory(isometry, r.family)
                assert np.array_equal(isometry, r.family[o, k])


def test_reading_the_node_objects_builds_no_state(monkeypatch):
    net, fol, initial, kwargs = _cone(2, 3)
    sc = two_leaf_chain()
    trees = [enumerate_tree(net, fol, initial, **kwargs),
             enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed),
             histories._grow(sc.net, sc.foliation, sc.initial, NumericPolicy(), sc.imposed, None,
                             "warn", draws=1000, gen=np.random.default_rng(2))[0]]

    def refuse(*args, **kwargs):
        raise AssertionError("a state was computed")

    monkeypatch.setattr(histories, "_collapse", refuse)
    monkeypatch.setattr(histories, "_reduce", refuse)
    for tree in trees:
        # what a benchmark reference reads: every node with its children and sums, the paths
        stack, nodes, dead = list(tree.root.children), 0, 0
        while stack:
            node = stack.pop()
            nodes += 1
            dead += not node.children and node.children_prob_sum is not None
            stack.extend(node.children)
        assert nodes == sum(len(r.parent) for r in tree.rows()[1])
        assert dead <= len(tree.leaves()) == len(tree.leaf_paths()) == len(tree.leaf_steps())


@pytest.mark.parametrize("extent_x, gate_seed", [(2, None), (2, 8), (3, None), (3, 8)],
                         ids=["2x2", "2x2-propagator", "2x3", "2x3-propagator"])
def test_replayed_states_are_the_states_the_engine_made(monkeypatch, extent_x, gate_seed):
    net, fol, initial, kwargs = _cone(extent_x, 3, gate_seed)
    tree, made = _growing(monkeypatch, lambda: enumerate_tree(net, fol, initial, **kwargs))
    nodes = _nodes_in_row_order(tree)
    assert len(nodes) == 1 + sum(map(len, made))
    # read deepest first, so each replay walks up through ancestors that hold no state
    for node, state in reversed(list(zip(nodes[1:], (s for stack in made for s in stack)))):
        assert np.array_equal(node.rho, state)
    assert nodes[0].rho is initial.rho


def test_gated_runs_embed_nothing_into_the_whole_net(monkeypatch):
    net, fol, initial, kwargs = _cone(3, 3, gate_seed=8, prob_floor=0.0)

    def refuse(*args, **kwargs):
        raise AssertionError("embedded into the whole net")

    monkeypatch.setattr(AlgebraNet, "embed", refuse)
    monkeypatch.setattr(linalg, "embed_factor", refuse)
    tree = enumerate_tree(net, fol, initial, **kwargs)
    stack, nodes = [tree.root], 0
    while stack:
        node = stack.pop()
        assert node.rho.shape == (2 ** len(node.state_cells),) * 2
        nodes += 1
        stack.extend(node.children)
    assert nodes == 1 + sum(len(r.parent) for r in tree.rows()[1])
    assert sum(sample_paths(net, fol, initial, 1000, 1, **kwargs).counts.values()) == 1000
    assert sample_history(net, fol, initial, 2, **kwargs).final_cells == ()


def test_gate_step_peak_is_one_stack_and_a_few_blocks(monkeypatch):
    # 512 states on 6 cells (D = 64), 32 MiB, and a Haar gate on cells 1 and 3
    rng = np.random.default_rng(7)
    n, cells, support = 512, (0, 1, 2, 3, 4, 5), (1, 3)
    rho = rng.standard_normal((n, 64, 64)) + 1j * rng.standard_normal((n, 64, 64))
    rho = rho @ rho.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    u = random_unitary(4, rng)
    full = linalg.embed_factor(u, support, len(cells), 2)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 2**14)
    tracemalloc.start()
    try:
        # the form the tree keeps a gate in: U^H as a family of one outcome
        out = histories._apply_gate(rho, cells, (support, u.conj().T[None, None]), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(out, full @ rho @ full.conj().T, atol=1e-14)
    # tracing starts after the inputs are made, so the peak is what the call adds:
    # the new stack and at most six blocks of BLOCK_ENTRIES complex entries.  The
    # embedded gate's two dense products held two stacks
    assert peak <= out.nbytes + 6 * 2**14 * 16, peak
    # on a stack it may overwrite, as the engine's own frontier, the gate writes each
    # block back over the states it read: the same bits, and no new stack
    tracemalloc.start()
    try:
        inplace = histories._apply_gate(rho, cells, (support, u.conj().T[None, None]), 2, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inplace is rho and np.array_equal(inplace, out)
    assert peak <= 6 * 2**14 * 16, peak


def _skipping_cone_state():
    """A 2x2 cone state whose family at (1, 0) fires on some entry branches only.

    The state is alpha on cells (0, 2) times beta on cells (1, 3), with beta's
    spectrum tuned so that the family at (0, 1) has a rank-2 outcome, which
    leaves cell 2 pure on some branches (as in ``test_histories``).
    """
    rng = np.random.default_rng(0)
    u = random_unitary(4, rng)
    alpha = (u * np.array([0.4, 0.3, 0.2, 0.1])) @ u.conj().T
    mu = np.linalg.eigvalsh(partial_trace(alpha, (1,), 2, 2))
    nu = np.array([mu[1], mu[0], 0.9 * mu[0], 0.7 * mu[1]])
    v = random_unitary(4, rng)
    beta = (v * (nu / nu.sum())) @ v.conj().T
    full = np.kron(alpha, beta).reshape([2] * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return State(full.reshape(16, 16))


def test_replay_crosses_skipped_points_and_imposed_families(monkeypatch):
    sc, overlap = two_leaf_chain(), build_scenario("epr-overlap")
    net = build_tensor_net(CausalLattice(2, 2))
    runs = {
        "imposed": lambda: enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed),
        "overlap": lambda: enumerate_tree(overlap.net, overlap.foliation, overlap.initial,
                                          imposed=overlap.imposed),
        "sampled": lambda: histories._grow(sc.net, sc.foliation, sc.initial, NumericPolicy(),
                                           sc.imposed, None, "warn", draws=1,
                                           gen=np.random.default_rng(4))[0],
        "skipping": lambda: enumerate_tree(net, foliate(net.lattice), _skipping_cone_state(),
                                           policy=NumericPolicy(prob_floor=1e-3)),
    }
    for name, grow in runs.items():
        tree, made = _growing(monkeypatch, grow)
        nodes = _nodes_in_row_order(tree)
        for node, state in reversed(list(zip(nodes[1:], (s for stack in made for s in stack)))):
            assert np.array_equal(node.rho, state), name
    # some branch of the last tree skipped a point: its child's parent is two points back
    _, points = tree.rows()
    first = np.cumsum([1] + [len(r.parent) for r in points])
    assert any(int(np.searchsorted(first, p, side="right")) - 1 < j - 1
               for j, r in enumerate(points) for p in r.parent)


def test_a_family_that_fires_everywhere_reads_the_frontier_in_place(monkeypatch):
    # the weights and the collapse get the frontier's own state stack where the
    # point's family fires on every live branch, and a gathered copy where it
    # skips one; gathering every point costs the 2x4 cone 53 MB of peak RSS
    branch_point, born, collapse = (histories._branch_point, histories._born_weights,
                                    histories._collapse)
    seen = []

    def applied(front, fam, *args):
        everywhere = bool(fam.fires[front.origin].all())

        def reading(step):
            def read(rho, *rest):
                seen.append((everywhere, np.shares_memory(rho, front.rho)))
                return step(rho, *rest)
            return read

        with monkeypatch.context() as patch:
            patch.setattr(histories, "_born_weights", reading(born))
            patch.setattr(histories, "_collapse", reading(collapse))
            return branch_point(front, fam, *args)

    monkeypatch.setattr(histories, "_branch_point", applied)
    net = build_tensor_net(CausalLattice(2, 2))
    # every family of the seeded state fires everywhere; some of the skipping state's do not
    for grow, kinds in ((lambda: _seeded_cone_tree(0, 1e-3), {True}),
                        (lambda: enumerate_tree(net, foliate(net.lattice), _skipping_cone_state(),
                                                policy=NumericPolicy(prob_floor=1e-3)),
                         {True, False})):
        seen.clear()
        grow()
        assert {everywhere for everywhere, _ in seen} == kinds
        assert all(everywhere == shared for everywhere, shared in seen), seen


def test_collapse_blocks_change_no_state_and_no_report(monkeypatch, tmp_path):
    # the Born weights and the collapse both take their parents in blocks
    cones = [_cone(3, 3), _cone(2, 5, gate_seed=8)]
    conditioned, born = histories._conditioned, histories._born_weights

    def outputs(block):
        monkeypatch.setattr(linalg, "block_size", lambda per_item: block)
        blocks, weights = [], []
        # each block gathers its own parents' isometry stacks, and no more
        monkeypatch.setattr(histories, "_conditioned",
                            lambda *args: blocks.append(len(args[4])) or conditioned(*args))
        monkeypatch.setattr(histories, "_born_weights",
                            lambda *args: weights.append(born(*args)) or weights[-1])
        stacks = []
        for net, fol, initial, kwargs in cones:
            tree, made = _growing(monkeypatch, lambda: enumerate_tree(net, fol, initial, **kwargs))
            stacks += made
        texts = [json.dumps(_tree_section(tree), sort_keys=True)]  # the last, propagator tree
        for args in (["--config", str(CONFIGS / "cone-2x2.json")],
                     ["--scenario", "epr-overlap", "--seed", "1"]):
            out = tmp_path / f"{block}.json"
            assert main(args + ["--out", str(out)]) == 0
            texts.append(out.read_text())
        return stacks, weights, texts, blocks

    whole, whole_weights, whole_texts, calls = outputs(2**62)  # one block holds every parent
    # some call weighs more than 7 parents, so blocks of 1 and 7 split it
    assert max(map(len, whole_weights)) > 7
    for block in (1, 7):
        stacks, weights, texts, blocks = outputs(block)
        assert len(blocks) > len(calls)  # some collapse ran in more than one block
        assert max(blocks) <= block
        assert len(stacks) == len(whole)
        assert all(np.array_equal(a, b) for a, b in zip(stacks, whole))
        assert len(weights) == len(whole_weights)
        assert all(np.array_equal(a, b) for a, b in zip(weights, whole_weights))
        assert texts == whole_texts


def test_born_weight_peak_is_a_few_blocks(monkeypatch):
    # 64 parents, each with 4 outcomes of rank 4 on 4 cells: 16 384 isometry entries
    rng = np.random.default_rng(6)
    n, outcomes, ds, rank = 64, 4, 16, 4
    iso = (rng.standard_normal((n, outcomes, ds, rank))
           + 1j * rng.standard_normal((n, outcomes, ds, rank)))
    g = rng.standard_normal((n, ds, ds)) + 1j * rng.standard_normal((n, ds, ds))
    rho = g @ g.conj().swapaxes(-1, -2)
    cells = (0, 1, 2, 3)
    whole = histories._born_weights(rho, cells, cells, iso, np.arange(n), 2)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 2**10)
    tracemalloc.start()
    try:
        blocked = histories._born_weights(rho, cells, cells, iso, np.arange(n), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(blocked, whole)
    # tracing starts after the inputs are made, so the peak is what the call adds:
    # its result and at most four blocks of BLOCK_ENTRIES complex entries (three
    # are used).  Taken whole, two temporaries of the whole isometry stack were
    # alive at once, 512 KiB
    assert peak <= blocked.nbytes + 4 * 2**10 * 16, peak


def test_enumeration_peak_is_a_few_child_stacks(monkeypatch):
    # the seeded 2x3 cone (D = 64); its largest child stack is (1024, 8, 8), 1 MiB.
    # The peak holds the parent frontier, that child stack, one block of
    # temporaries and the points' family stacks, which the rows share (0.2 MiB):
    # about 3.5 stacks.  Rows that kept every state, and a normalization with three
    # complex temporaries of the whole stack, made it 6.7.
    net = build_tensor_net(CausalLattice(2, 3), 2)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((net.dim, net.dim)) + 1j * rng.standard_normal((net.dim, net.dim))
    rho = g @ g.conj().T
    initial = State(rho / np.trace(rho).real)
    largest, collapse = [], histories._collapse

    def sized(*args):
        out = collapse(*args)
        largest.append(out.nbytes)
        return out

    monkeypatch.setattr(histories, "_collapse", sized)
    tracemalloc.start()
    try:
        enumerate_tree(net, foliate(net.lattice), initial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(largest) == 1024 * 8 * 8 * 16
    assert peak <= 5 * max(largest)


# ---------------------------------------------------------------------------
# The sampling stream and the commutator stacks
# ---------------------------------------------------------------------------


# tree-order counts of two seeded sample runs; a change to the engine's walk, its
# pruning or its multinomial calls that moves a draw fails here
CHAIN_COUNTS = {((0, 0, 0), (1, 0, 0)): 38261, ((0, 0, 0), (1, 0, 1)): 1647,
                ((0, 0, 1), (1, 0, 0)): 21345, ((0, 0, 1), (1, 0, 1)): 8499,
                ((0, 0, 2), (1, 0, 0)): 18226, ((0, 0, 2), (1, 0, 1)): 1940,
                ((0, 0, 3), (1, 0, 0)): 10041, ((0, 0, 3), (1, 0, 1)): 41}
CONE_COUNTS = [
    554, 56, 141, 109, 163, 90, 34, 9, 194, 2, 14, 16, 180, 12, 16, 29, 27, 20, 15, 15, 154, 65,
    10, 26, 111, 17, 20, 12, 56, 2, 1, 9, 233, 19, 61, 59, 171, 95, 37, 6, 172, 3, 14, 16, 210, 6,
    11, 39, 75, 70, 35, 44, 164, 71, 6, 42, 33, 4, 5, 4, 131, 12, 17, 167, 14, 31, 26, 133, 73,
    24, 8, 514, 2, 27, 27, 65, 1, 7, 10, 37, 23, 16, 13, 110, 49, 10, 22, 81, 9, 13, 8, 69, 5, 8,
    101, 10, 24, 11, 151, 87, 43, 5, 121, 8, 11, 266, 8, 13, 43, 140, 107, 61, 60, 62, 33, 7, 17,
    90, 11, 20, 6, 29, 2, 1, 1, 76, 12, 23, 14, 102, 40, 17, 3, 143, 1, 9, 11, 95, 7, 4, 24, 50,
    37, 20, 27, 119, 53, 3, 17, 40, 2, 6, 4, 80, 7, 9, 29, 1, 3, 6, 48, 13, 15, 141, 3, 8, 8, 55,
    2, 2, 12, 62, 30, 21, 19, 39, 20, 4, 12, 78, 15, 23, 9, 119, 8, 9, 33, 3, 7, 9, 49, 25, 15, 3,
    15, 1, 17, 3, 42, 25, 19, 15, 31, 11, 1, 8, 95, 12, 22, 8, 87, 8, 3, 8, 1, 1, 1, 36, 12, 6,
    1, 13, 1, 42, 2, 5, 11, 13, 14, 3, 6, 34, 19, 6, 56, 2, 7, 57, 3, 2, 7]


def test_seeded_sample_counts_stay_put():
    sc = two_leaf_chain()
    summary = sample_paths(sc.net, sc.foliation, sc.initial, 100_000, 1)
    assert list(summary.counts.items()) == list(CHAIN_COUNTS.items())
    cfg = load_config(str(CONFIGS / "cone-2x2.json"), {})
    net = _net_from_config(cfg.net, cfg.policy)
    initial, _ = _state_from_config(cfg.initial_state, net.dim, cfg.policy)
    summary = sample_paths(net, foliate(net.lattice), initial, 10_000, 3, policy=cfg.policy)
    assert list(summary.counts.values()) == CONE_COUNTS
    assert list(summary.counts)[:2] == [((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)),
                                        ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1))]


def test_family_commutators_read_the_stacks_a_block_at_a_time(monkeypatch):
    # 4096 entry branches of two 4-outcome families of rank 2 on overlapping
    # supports, laid out as detection lays them out (rows outermost); each stack
    # holds 4096 * 64 entries (4 MiB), sixteen blocks of 2**14
    rng = np.random.default_rng(11)
    n, supports = 4096, ((0, 1, 2), (1, 2, 3))

    def family(x, support, fires):
        g = rng.standard_normal((n, 8, 8)) + 1j * rng.standard_normal((n, 8, 8))
        iso = np.linalg.qr(g)[0].reshape(n, 8, 4, 2).transpose(0, 2, 1, 3)
        return histories._Family(Point(0, x), support, (0, 1, 2, 3), iso, np.full(n, 4), fires,
                                 ())

    a, b = family(0, supports[0], np.ones(n, bool)), family(1, supports[1], np.ones(n, bool))
    # the norms of the stacks gathered whole, as the engine once gathered them
    every = np.arange(n)
    whole = linalg.max_commutator_norm(a.iso[every], b.iso[every], supports, 2, every)
    some = rng.random(n) < 0.5
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 2**14)
    for fires in (np.ones(n, bool), some):
        tracemalloc.start()
        try:
            ((p, q, norms),) = histories._family_commutators([a, b._replace(fires=fires)], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (p, q) == (Point(0, 0), Point(0, 1))
        assert np.array_equal(norms[fires], whole[fires]) and not norms[~fires].any()
        # tracing starts after the stacks are made, so the peak is what the call
        # adds: the norms and at most six blocks of BLOCK_ENTRIES complex entries.
        # Gathering both stacks whole added 8 MiB
        assert peak <= norms.nbytes + 6 * 2**14 * 16, peak
