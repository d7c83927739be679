"""Tests for the row record of the history tree and the objects built from it."""

import numpy as np
import pytest

from eventnet import (ActualEvent, BranchNode, CausalLattice, State, build_tensor_net,
                      enumerate_tree, epr_scenario, foliate, sample_paths, two_leaf_chain)
from eventnet.linalg import random_unitary
from eventnet.policy import NumericPolicy


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
    trees = [enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed),
             _seeded_cone_tree(0, 1e-9), _seeded_cone_tree(0, 0.01),
             _seeded_cone_tree(5, 1e-3, gate_seed=8)]
    walked = [[(tuple((e.point.tau, e.point.x, e.label) for e in events), prob)
               for events, prob in tree.leaf_paths()] for tree in trees]
    for tree in trees:
        tree._root = None  # drop the objects leaf_paths built
    monkeypatch.setattr(ActualEvent, "from_isometry", None)
    steps = [tree.leaf_steps() for tree in trees]
    assert steps == walked
    # dead leaves end some paths early, so the walk's order is not the rows' order
    assert any(len(a) > len(b) for (a, _), (b, _) in zip(steps[2], steps[2][1:]))
