"""Tests for the row record of the history tree and the objects built from it."""

import pytest

from eventnet import (ActualEvent, BranchNode, enumerate_tree, epr_scenario, sample_paths,
                      two_leaf_chain)


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
