"""Trees known in closed form, on cones past the dense oracle's D = 64.

Product states ``⊗_c diag(p_c, 1 - p_c)`` branch once per cell, in the
cell's own basis, so a tree has 2^n leaves, each reading one basis state of
every cell with the product of those cells' populations.  A pure product
state has no mixed support, so nothing happens.  A cat state
``sqrt(a)|0...0> + sqrt(1 - a)|1...1>`` has the spectrum {a, 1 - a, 0, ...}
on every proper support: each point of the first leaf fires and the first
outcome fixes the others, so the tree has two leaves of a and 1 - a; at
a = 1/2 the two levels are one cluster and nothing happens.  A product of
single-cell unitaries turns none of these spectra, so a locally turned
copy of a state has its tree's probabilities.
"""

import numpy as np
import pytest

from eventnet import (CausalLattice, State, build_tensor_net, enumerate_tree, foliate,
                      sample_paths)
from eventnet.linalg import random_unitary

import oracles

DRAWS = 10**4


def _net(tau, x):
    net = build_tensor_net(CausalLattice(tau, x), 2)
    return net, foliate(net.lattice)


def _product_tree(tau, x):
    net, fol = _net(tau, x)
    # distinct populations, and no two products of them on a support within gap_min
    pops = 0.313 + 0.4 * np.arange(net.n_cells) / net.n_cells
    initial = State(oracles.product_state(pops))
    return net, fol, initial, pops, enumerate_tree(net, fol, initial)


@pytest.mark.parametrize("tau, x", [(2, 4), (4, 2), (3, 3)], ids=["2x4", "4x2", "3x3"])
def test_a_product_state_branches_once_per_cell(tau, x):
    net, _, _, pops, tree = _product_tree(tau, x)
    leaves = tree.leaf_paths()
    assert len(leaves) == 2**net.n_cells
    assert tree.pruned_mass == 0.0
    assert tree.max_commutator <= 1e-12
    read = set()
    for events, prob in leaves:
        bits = oracles.basis_bits(events, net.n_cells)
        assert None not in bits
        assert abs(prob - oracles.product_leaf_probability(pops, bits)) <= 1e-12
        read.add(tuple(bits))
    assert len(read) == len(leaves)  # every basis state of the cells, once


@pytest.mark.parametrize("tau, x", [(2, 3), (2, 4), (4, 2), (3, 3)],
                         ids=["2x3", "2x4", "4x2", "3x3"])
def test_a_product_state_meets_its_spectrum_dims(tau, x):
    net, fol, _, _, tree = _product_tree(tau, x)
    assert tree.spectrum_dims == oracles.product_spectrum_dims(net, fol)


@pytest.mark.parametrize("tau, x", [(2, 3), (2, 4), (3, 3)], ids=["2x3", "2x4", "3x3"])
def test_a_locally_turned_product_state_keeps_its_leaf_probabilities(tau, x):
    net, fol, initial, _, tree = _product_tree(tau, x)
    rng = np.random.default_rng(5)
    turned_state = oracles.locally_turned(initial.rho,
                                          [random_unitary(2, rng) for _ in range(net.n_cells)])
    turned = enumerate_tree(net, fol, State(turned_state))
    probs = sorted(prob for _, prob in tree.leaf_steps())
    turned_probs = sorted(prob for _, prob in turned.leaf_steps())
    assert len(turned_probs) == len(probs)
    assert np.max(np.abs(np.subtract(turned_probs, probs))) <= 1e-12
    assert turned.pruned_mass <= 1e-12
    assert turned.max_commutator <= 1e-11


def test_draws_on_a_product_state_follow_its_closed_form():
    net, fol, initial, pops, tree = _product_tree(2, 4)
    exact = {tuple((e.point.tau, e.point.x, e.label) for e in events):
             oracles.product_leaf_probability(pops, oracles.basis_bits(events, net.n_cells))
             for events, _ in tree.leaf_paths()}
    counts = sample_paths(net, fol, initial, DRAWS, 7).counts
    assert set(counts) <= set(exact) and sum(counts.values()) == DRAWS
    for path, p in exact.items():  # every leaf, drawn or not, within 5 sigma
        assert abs(counts.get(path, 0) - DRAWS * p) <= 5 * np.sqrt(DRAWS * p * (1 - p)), path


def test_a_pure_product_state_has_one_leaf():
    net, fol = _net(3, 3)
    rng = np.random.default_rng(3)
    vec = np.ones(1, dtype=complex)
    for _ in range(net.n_cells):  # a seeded pure state on each cell
        vec = np.kron(vec, random_unitary(2, rng)[:, 0])
    tree = enumerate_tree(net, fol, State.from_vector(vec))
    assert tree.leaf_steps() == [((), 1.0)]
    assert tree.pruned_mass == 0.0


def test_a_pure_product_state_meets_two_clusters_only():
    # every support spectrum is {1, 0, ...}: two clusters, and no event
    net, fol = _net(3, 3)
    rng = np.random.default_rng(3)
    vec = np.ones(1, dtype=complex)
    for _ in range(net.n_cells):
        vec = np.kron(vec, random_unitary(2, rng)[:, 0])
    assert enumerate_tree(net, fol, State.from_vector(vec)).spectrum_dims == [2]


@pytest.mark.parametrize("tau, x", [(2, 3), (3, 3)], ids=["2x3", "3x3"])
def test_a_cat_state_has_two_leaves_or_one(tau, x):
    net, fol = _net(tau, x)
    first = [(p.tau, p.x) for p in fol.leaves[0]]
    tree = enumerate_tree(net, fol, State.from_vector(oracles.cat_state(net.n_cells, 0.7)))
    steps = tree.leaf_steps()
    assert [[(t, x) for t, x, _ in path] for path, _ in steps] == [first, first]
    assert [prob for _, prob in steps] == pytest.approx([0.7, 0.3], abs=1e-12)
    assert tree.pruned_mass <= 1e-12
    for events, _ in tree.leaf_paths():  # the first outcome fixes the others
        bits = oracles.basis_bits(events, net.n_cells)
        assert len({b for b in bits if b is not None}) == 1
    # at a = 1/2 the two levels are one cluster: no event happens
    half = enumerate_tree(net, fol, State.from_vector(oracles.cat_state(net.n_cells, 0.5)))
    assert half.leaf_steps() == [((), 1.0)]
