"""Two exact symmetries of the engine's rule, checked at full rank on cones past D = 64.

The dense oracle stops at D = 64, and the closed forms hold only for
states whose families commute.  A relation between two runs needs
neither (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

* **Mirror.**  Reflecting x -> X - 1 - x on the state's cells, with each
  point of the foliation reflected where it is listed (so a leaf lists x
  descending), gives the tree of the reflected paths.  The reflection
  keeps every cone, but not the cells' order within a support, and it
  reverses the order in which a leaf's spacelike families are conditioned:
  listing a leaf in reverse without reflecting the state moves the 2x3
  cone's leaves by up to 1.9e-3.
* **Relabelling.**  Listing the same lattice's cells in another order
  (``AlgebraNet(cells=...)``), with the state's tensor slots permuted to
  match, gives the same tree: every slot regrouping of the engine runs in
  another order.

The state is the full-rank Ginibre state of ``default_rng(0)`` whose
spacelike families do not commute (``max_commutator`` about 0.5).  The
bounds leave headroom over the measured moves, for other BLAS builds:
leaf weights moved by at most 3.4e-17, ``pruned_mass`` by 7e-19 and
commutator norms by 2.7e-15 (numpy 2.4, x86-64).
"""

import numpy as np
import pytest

from eventnet import CausalLattice, State, build_tensor_net, enumerate_tree, foliate, sample_paths
from eventnet.policy import NumericPolicy

import oracles

POLICY = NumericPolicy(branch_cap=300000)
LEAF_TOL = 1e-15
NORM_TOL = 1e-14
DRAWS = 10**5


@pytest.fixture(scope="module", params=[(2, 3), (3, 2), (2, 4)], ids=["2x3", "3x2", "2x4"])
def cone(request):
    tau, x = request.param
    net = build_tensor_net(CausalLattice(tau, x), 2)
    fol = foliate(net.lattice)
    rho = oracles.ginibre_state(net.dim)
    return net, fol, rho, enumerate_tree(net, fol, State(rho), policy=POLICY)


def _same_tree(tree, other, leaves, norms):
    """``other`` is ``tree`` seen through the symmetry: ``leaves`` and ``norms`` mapped already."""
    got = dict(other.leaf_steps())
    assert set(got) == set(leaves)
    assert max(abs(got[path] - p) for path, p in leaves.items()) <= LEAF_TOL
    assert abs(other.pruned_mass - tree.pruned_mass) <= LEAF_TOL
    assert other.spectrum_dims == tree.spectrum_dims
    rows = other.commutation_norms
    assert [row[:3] for row in rows] == [row[:3] for row in norms]
    assert max(abs(row[3] - want[3]) for row, want in zip(rows, norms)) <= NORM_TOL
    assert tree.max_commutator > 0.49  # the families do not commute


def test_the_mirror_image_of_a_state_branches_into_the_mirrored_paths(cone):
    net, fol, rho, tree = cone
    x = net.lattice.extent_x
    mirrored = enumerate_tree(net, oracles.mirrored_foliation(fol, x),
                              State(oracles.permuted_slots(rho, oracles.mirror_slots(net), 2)),
                              policy=POLICY)
    leaves = {oracles.mirrored_steps(path, x): p for path, p in tree.leaf_steps()}
    # a pair keeps its listing order, so the pair of p and q becomes that of their images
    norms = sorted((li, oracles.mirrored_point(p, x), oracles.mirrored_point(q, x), n)
                   for li, p, q, n in tree.commutation_norms)
    _same_tree(tree, mirrored, leaves, norms)


def test_cells_listed_in_another_order_give_the_same_tree(cone):
    net, fol, rho, tree = cone
    order = list(np.random.default_rng(net.n_cells).permutation(net.n_cells))
    assert order != sorted(order)
    relabelled = enumerate_tree(oracles.relabelled_net(net, order), fol,
                                State(oracles.permuted_slots(rho, order, 2)), policy=POLICY)
    _same_tree(tree, relabelled, dict(tree.leaf_steps()), tree.commutation_norms)


def test_draws_on_the_mirror_image_follow_the_enumerated_leaves():
    net = build_tensor_net(CausalLattice(2, 3), 2)
    fol, x = foliate(net.lattice), net.lattice.extent_x
    rho = oracles.ginibre_state(net.dim)
    exact = {oracles.mirrored_steps(path, x): p
             for path, p in enumerate_tree(net, fol, State(rho), policy=POLICY).leaf_steps()}
    counts = sample_paths(net, oracles.mirrored_foliation(fol, x),
                          State(oracles.permuted_slots(rho, oracles.mirror_slots(net), 2)),
                          DRAWS, 7, policy=POLICY).counts
    assert set(counts) <= set(exact) and sum(counts.values()) == DRAWS
    # every leaf expected at least 25 times, drawn or not, within 5 sigma; one draw on a
    # leaf of weight 1e-7 is 10 sigma, so the rarer leaves are counted as one
    rare_p = rare_count = 0
    for path, p in exact.items():
        if DRAWS * p < 25:
            rare_p, rare_count = rare_p + p, rare_count + counts.get(path, 0)
            continue
        assert abs(counts.get(path, 0) - DRAWS * p) <= 5 * np.sqrt(DRAWS * p * (1 - p)), path
    assert abs(rare_count - DRAWS * rare_p) <= 5 * np.sqrt(DRAWS * rare_p * (1 - rare_p))
