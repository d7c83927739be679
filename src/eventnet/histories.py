"""History operators, branching trees, and Monte-Carlo history sampling.

A history is a causally ordered sequence of realized events; its operator
is the product of the event projections with the earliest factor acting
first (rightmost).  Trees are built leaf by leaf along a foliation: each
branch detects events at every point of the current leaf from its own
entry state, then forks over outcomes point by point in canonical spatial
order, conditioning as it goes.  Chain-rule consistency (path probability
= product of conditional probabilities = history-operator normalization)
is exact by construction and re-verified in tests.  Sampling grows the
same tree along the outcomes its draws reach: each parent splits its
draws over its children with one multinomial draw.

Branching works on support factors.  A branch carries its state only on
the tensor cells that later points still touch: after each point every
cell that no later support or propagator reaches is traced out, whether
or not an event fired there.  An imposed family and a propagator act on
the fewest cells they touch, a propagator U as one outcome V = U^H.

One engine (:func:`_grow`) runs enumeration and both samplers, over the
whole live frontier at once.  All live branches carry the same cells, so
their states form one ``(B, D, D)`` stack.  Per leaf, detection is one
batched partial trace and one batched ``eigh`` per point on the stack of
entry states, and each outcome is held by its eigenvector isometry V.
Per point, the Born weights ``tr(V^H rho_S V)`` of every outcome of every
branch come first; only the kept (or drawn) children are then collapsed,
with V contracted on the support axes as a propagator's is, and recorded
as one :class:`TreeRows`.  Each branch is replaced in place by its
children, so the frontier stays in tree order.  Commutator norms of two
families are taken by principal angles
(:func:`linalg.max_commutator_norm`), at every entry branch where both
fire, in one call per pair of points.

Memory is the live frontier plus one bounded block of work.  The collapse
takes consecutive parents in blocks (:data:`linalg.BLOCK_ENTRIES`) and
normalizes their children in place, a propagator's step writes each
block back over the frontier it read, and the frontier is the only place a
branch state lives: the tree keeps each point's family of isometries,
which its rows index, and each propagator's family, not the states.
Each family stack exists once, and each kernel that reads one (the Born
weights, the collapse and the commutator norm) gathers the rows it needs
block by block inside its own block loop.
Node objects are built only when they are read, and a node's state is
replayed from its parent's, and checked, only when it is read.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .errors import BranchOverflowError, CommutationError, DimensionMismatchError, NullBranchError
from .events import ActualEvent, event_happened, normalize_branch
from .opalg import PotentialEvent, State, _as_matrix
from .policy import DEFAULT_POLICY, NumericPolicy, is_integer_at_least
from .spacetime import AlgebraNet, CausalLattice, Foliation, Point, Relation, causal_relate

MAX_SAMPLES = 2**63 - 1  # the most draws a multinomial draw takes (int64)

__all__ = [
    "HistoryOperator",
    "BranchNode",
    "HistoryTree",
    "TreeRows",
    "SampledHistory",
    "SampleSummary",
    "history_operator",
    "history_probability",
    "propagate_state",
    "apply_propagator",
    "enumerate_tree",
    "sample_history",
    "sample_paths",
]


class HistoryOperator(namedtuple("HistoryOperator",
                                 ("events", "matrix", "spacelike_norms", "flagged"))):
    """Product of event projections in causal order (earliest rightmost).

    ``events`` is a tuple of :class:`ActualEvent`, ``matrix`` the product
    (an ndarray), ``spacelike_norms`` a list of (Point, Point, float) and
    ``flagged`` a bool.
    """

    __slots__ = ()


def history_operator(events: Sequence[ActualEvent], lattice: CausalLattice | None = None,
                     *, policy: NumericPolicy = DEFAULT_POLICY) -> HistoryOperator:
    """Assemble the ordered product for a sequence of realized events.

    Events at spacelike points commute up to numerics, so any causal
    extension of the partial order gives the same operator; the canonical
    (tau, x) order is used.  Spacelike commutator norms are recorded, and
    the history is flagged when one exceeds ``tol_commutation``.  An empty
    history is refused: its operator would be the identity on no space.
    """
    events = list(events)
    if not events:
        raise ValueError("a history needs at least one event")
    points = [e.point for e in events]
    if any(p is None for p in points):
        raise ValueError("history events must carry lattice points")
    if len(set(points)) != len(points):
        raise ValueError("history contains two events at the same point")
    ordered = sorted(events, key=lambda e: (e.point.tau, e.point.x))
    dim = ordered[0].projection.dim
    mat = np.eye(dim, dtype=complex)
    for ev in ordered:
        mat = _as_matrix(ev.projection, dim) @ mat
    norms = []
    if lattice is not None:
        # each event with its complement is a complete family, and
        # ||[1 - p, q]|| = ||[p, q]||; a batch of one family on one cell of dimension D
        ranges = {}
        for ev in ordered:
            p = ev.projection.entries
            ranges[ev.point] = linalg.range_isometries([p, np.eye(dim) - p])[None]
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if causal_relate(lattice, a.point, b.point) is Relation.SPACELIKE:
                    (norm,) = linalg.max_commutator_norm(ranges[a.point], ranges[b.point],
                                                         ((0,), (0,)), dim, [0])
                    norms.append((a.point, b.point, float(norm)))
    flagged = any(n > policy.tol_commutation for *_, n in norms)
    return HistoryOperator(events=tuple(ordered), matrix=mat,
                           spacelike_norms=norms, flagged=flagged)


def history_probability(initial: State, history: HistoryOperator) -> float:
    """Normalization of the propagated state: trace(rho H* H)."""
    h = _as_matrix(history.matrix, initial.dim)
    return float(np.einsum("ij,ji->", initial.rho, h.conj().T @ h).real)


def propagate_state(initial: State, history: HistoryOperator,
                    *, policy: NumericPolicy = DEFAULT_POLICY) -> State:
    """State after the history: H rho H* renormalized."""
    h = _as_matrix(history.matrix, initial.dim)
    return State(normalize_branch(h @ initial.rho @ h.conj().T, policy), policy=policy)


def _unitary(u, policy: NumericPolicy) -> np.ndarray:
    """The propagator's matrix, after checking that it is finite and unitary."""
    mat = _as_matrix(u)
    if not np.isfinite(mat).all():
        raise ValueError("propagator has a NaN or infinite entry")
    defect = linalg.operator_norm(mat.conj().T @ mat - np.eye(mat.shape[0]))
    if defect > policy.tol_proj:
        raise ValueError(f"propagator is not unitary (defect {defect:.3e})")
    return mat


def apply_propagator(u, state: State, *, policy: NumericPolicy = DEFAULT_POLICY) -> State:
    """Conjugate the state by a unitary, verifying unitarity first."""
    mat = _unitary(_as_matrix(u, state.dim), policy)
    return State(mat @ state.rho @ mat.conj().T, policy=policy)


class BranchNode:
    """One realized outcome in the branching tree, built from the tree's rows.

    ``cond_prob`` is the Born weight given the parent branch, ``cum_prob``
    the product along the path from the root.  ``event_dim`` is the
    dimension of the event algebra that fired here (the spectrum snapshot).

    ``rho`` is the conditioned state on the tensor cells the branch still
    carries, and ``state_cells`` names those cells in slot order: the
    partial trace of the ambient branch state onto them.  Cells that no
    later point reads or acts on are dropped, so a leaf at the end of a
    cone net carries no cells and a 1x1 state.  The root holds the initial
    state on every cell.  The tree keeps no other state: any other node
    replays its own from its parent node's the first time ``rho`` is read,
    and keeps it (see :class:`HistoryTree`); a state assigned to ``rho``
    replaces it.  ``state_after`` is ``rho`` as a :class:`State`, built
    and checked under ``policy`` when first read.

    ``children_prob_sum`` is the total weight of the outcomes at the next
    applied family.  A node whose every outcome fell below ``prob_floor``
    keeps it but has no children: it stays a leaf holding its own mass.
    A node is built with its ``state`` (the root), or with the ``tree`` and
    the ``row`` of it that the state is replayed from
    (:meth:`HistoryTree._replay`); ``children`` starts empty.
    """

    __slots__ = ("leaf_index", "point", "actual", "state_cells", "cond_prob", "cum_prob",
                 "event_dim", "policy", "children", "children_prob_sum", "_rho", "_tree", "_row",
                 "_state")

    def __init__(self, leaf_index: int, point: Point | None, actual: ActualEvent | None,
                 state_cells: tuple[int, ...], cond_prob: float, cum_prob: float,
                 event_dim: int | None, policy: NumericPolicy, children_prob_sum: float | None,
                 *, state: State | None = None, tree: HistoryTree | None = None, row: int = 0):
        self.leaf_index = leaf_index
        self.point = point
        self.actual = actual
        self.state_cells = state_cells
        self.cond_prob = cond_prob
        self.cum_prob = cum_prob
        self.event_dim = event_dim
        self.policy = policy
        self.children: list[BranchNode] = []
        self.children_prob_sum = children_prob_sum
        self._rho = None if state is None else state.rho
        self._tree = tree
        self._row = row
        self._state = state

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            self._tree._replay(self._row)
        return self._rho

    @rho.setter
    def rho(self, value: np.ndarray) -> None:
        self._rho, self._state = value, None

    @property
    def state_after(self) -> State:
        if self._state is None:
            self._state = State(self.rho, policy=self.policy)
        return self._state


class TreeRows(namedtuple("TreeRows", ("leaf_index", "point", "labels", "support", "cells",
                                       "family", "parent", "origin", "outcome", "cond_prob",
                                       "cum_prob", "event_dim", "draws"))):
    """The rows one applied point added to a :class:`HistoryTree`.

    Row c descends from row ``parent[c]`` by the outcome labelled
    ``labels[outcome[c]]`` (one of ``event_dim[c]``), on leaf ``leaf_index``
    (an int) at ``point`` (a Point); its state lives on ``cells``
    (``labels``, ``support`` and ``cells`` are tuples).  ``family`` is the
    point's isometry stack as the engine branched on it (see
    :class:`_Family`), one ndarray shared by every row of the point, and
    ``family[origin[c], outcome[c]]`` spans row c's outcome on ``support``:
    ``origin[c]`` is the entry branch of the leaf it descends from.  No
    state is kept: a row's follows from its parent's, and
    :class:`BranchNode` replays it when read.  ``draws`` is None for an
    enumerated tree.  The tree holds the scalar columns (``parent`` to
    ``draws``) as arrays; :meth:`HistoryTree.rows` gives them as lists of
    ints and floats.
    """

    __slots__ = ()


class HistoryTree:
    """Full enumeration of histories along a foliation, held as rows.

    Row 0 is the root, and each applied point appends one :class:`TreeRows`
    of the children it made, its scalar columns as arrays;
    ``children_prob_sum`` is one array over the rows, NaN where no family
    fired.  :meth:`rows` hands out the same records with those columns as
    Python lists, without building a node, and is what the report reads;
    every leaf listing reads tree order off the arrays alone
    (:func:`_leaf_paths`).  ``root`` builds the :class:`BranchNode` and
    :class:`ActualEvent` objects of every row in one pass the first time
    it is read, and keeps them in row order, for callers that want the
    objects.  Building them computes no state: the tree holds the initial
    state, each point's family stack, which a node's event views, and each
    propagator's family, and a node's ``rho`` is replayed from its
    parent's when first read (:meth:`_replay`, which finds a row's point
    by the first rows that ``root`` computes once).  ``max_commutator`` is
    the largest of the ``commutation_norms``, 0.0 when there are none.

    ``pruned_mass`` is the mass of outcomes dropped below ``prob_floor``
    beside a sibling that was kept.  The listed leaves and the pruned mass
    together hold every unit of probability once.
    """

    def __init__(self, foliation: Foliation, pruned_mass: float, spectrum_dims: list[int],
                 commutation_norms: list[tuple[int, Point, Point, float]], initial: State,
                 net: AlgebraNet, policy: NumericPolicy, gates: Mapping[int, tuple],
                 rows: list[TreeRows], sums: np.ndarray):
        self.foliation = foliation
        self.pruned_mass = pruned_mass
        self.spectrum_dims = spectrum_dims
        self.commutation_norms = commutation_norms
        self._initial = initial
        self._net = net
        self._policy = policy
        self._gates = gates
        self._rows = rows
        self._sums = sums
        self._root: BranchNode | None = None

    @property
    def max_commutator(self) -> float:
        return max((n for *_, n in self.commutation_norms), default=0.0)

    def rows(self) -> tuple[list[float | None], list[TreeRows]]:
        """Every row's ``children_prob_sum`` (None where no family fired), and each point's rows.

        Each point's rows follow the root in order: its first row is one
        past the last row of the point before.  A leaf is a row that no
        row names as its parent.
        """
        sums = [None if s != s else s for s in self._sums.tolist()]  # NaN is None
        return sums, [r._replace(parent=r.parent.tolist(), origin=r.origin.tolist(),
                                 outcome=r.outcome.tolist(),
                                 cond_prob=r.cond_prob.tolist(), cum_prob=r.cum_prob.tolist(),
                                 event_dim=r.event_dim.tolist(),
                                 draws=None if r.draws is None else r.draws.tolist())
                      for r in self._rows]

    @property
    def root(self) -> BranchNode:
        if self._root is None:
            net, policy = self._net, self._policy
            sums, points = self.rows()
            # the nodes in row order, and each point's first row, for _replay
            self._first = np.cumsum([1] + [len(r.parent) for r in points])
            self._nodes = nodes = [BranchNode(-1, None, None, tuple(range(net.n_cells)), 1.0,
                                              1.0, None, policy, sums[0], state=self._initial)]
            for r in points:
                for p, o, k, w, cum, dim in zip(r.parent, r.origin, r.outcome, r.cond_prob,
                                                r.cum_prob, r.event_dim):
                    actual = ActualEvent.from_isometry(r.point, r.labels[k], r.family[o, k],
                                                       r.support, net, w)
                    node = BranchNode(r.leaf_index, r.point, actual, r.cells, w, cum, dim, policy,
                                      sums[len(nodes)], tree=self, row=len(nodes))
                    nodes[p].children.append(node)
                    nodes.append(node)
            self._root = nodes[0]
        return self._root

    def _replay(self, row: int) -> None:
        """Give node ``row``, and each ancestor without one, its state.

        The walk starts at the nearest ancestor that holds a state, the
        root at the latest, and steps down as the engine did: through each
        point between a parent and its child the state is reduced to that
        point's ``cells``, a leaf with a propagator collapses it by the
        propagator's family of one outcome, and at the child's point the
        point's family collapses it (:func:`_reduce`, :func:`_apply_gate`,
        :func:`_collapse`).  Each collapse takes the engine's arguments for
        a block of one parent: the family the engine read and the parent's
        entry branch; at a point it makes every child of the parent at once
        and gives each sibling without a state its own.
        """
        d, points, nodes, first = self._net.cell_dim, self._rows, self._nodes, self._first

        def point_of(row):  # -1 for the root
            return int(np.searchsorted(first, row, side="right")) - 1

        path = []
        while nodes[row]._rho is None:
            j = point_of(row)
            path.append((row, j))
            row = int(points[j].parent[row - first[j]])
        rho, cells, done = nodes[row]._rho[None], nodes[row].state_cells, point_of(row)
        for row, j in reversed(path):
            for m in range(done + 1, j + 1):
                for li in range(points[m - 1].leaf_index + 1 if m else 0,
                                points[m].leaf_index + 1):
                    if li in self._gates:
                        rho = _apply_gate(rho, cells, self._gates[li], d)
                if m < j:
                    rho, cells = _reduce(rho, cells, points[m].cells, d), points[m].cells
            r = points[j]
            kin = np.flatnonzero(r.parent == r.parent[row - first[j]])  # consecutive rows
            states = _collapse(rho, cells, r.support, r.cells, r.family, r.origin[kin[:1]],
                               np.zeros_like(kin), r.outcome[kin], d)
            for node, state in zip(nodes[first[j] + kin[0]:first[j] + kin[-1] + 1], states):
                if node._rho is None:
                    node._rho = state
            rho, cells, done = nodes[row]._rho[None], r.cells, j

    def _leaf_nodes(self):
        """Each leaf node in tree order and the events on its path, off the rows."""
        self.root  # builds the nodes
        events = np.fromiter((n.actual for n in self._nodes), dtype=object, count=len(self._nodes))
        leaves, paths = _leaf_paths(self._rows, events)
        return zip([self._nodes[i] for i in leaves.tolist()], paths)

    def leaves(self) -> list[BranchNode]:
        return [leaf for leaf, _ in self._leaf_nodes()]

    def leaf_paths(self) -> list[tuple[tuple[ActualEvent, ...], float]]:
        """Each leaf's event sequence (causal order) and its path probability."""
        return [(events, leaf.cum_prob) for leaf, events in self._leaf_nodes()]

    def leaf_steps(self) -> list[tuple[tuple[tuple[int, int, object], ...], float]]:
        """Each leaf's (tau, x, label) steps and its path probability, read off the rows.

        The leaves come in the order of :meth:`leaf_paths`; no node is built.
        """
        leaves, paths = _leaf_paths(self._rows)
        return list(zip(paths, _column(self._rows, "cum_prob", 1.0)[leaves].tolist()))


def _column(points: Sequence[TreeRows], name: str, root) -> np.ndarray:
    """One scalar column over every row of the tree, the root's entry ``root`` first."""
    return np.concatenate([[root], *(getattr(r, name) for r in points)])


def _leaf_paths(points: Sequence[TreeRows], events=None) -> tuple[np.ndarray, list[tuple]]:
    """The leaf rows in tree order, and each one's (tau, x, label) steps from the root.

    ``points`` are a tree's rows as it holds them, columns as arrays; row 0
    is the root, and each point's rows follow the rows of the point before.
    Tree order is the preorder of ``root``'s depth-first walk, in which a
    row's children are consecutive rows of one point, in outcome order.
    One pass over the points finds it, as the engine's frontier moves:
    ``order`` holds the rows without a child so far, in tree order, and at
    each point the parents in it are replaced by their children (a parent's
    rows are one run of its ``parent`` column, and the runs come in tree
    order).  The rows left at the end are the leaves.

    A leaf's steps are then read upwards, one array step per level over
    the leaves alone: the step of each leaf's row, of its parent, and so on
    to the root.  Each point's (tau, x, label) tuples are made once and
    shared by every path through them; a leaf nearer the root than the
    deepest is padded with None there, and the padding is dropped.  Given
    ``events``, an object array of one entry per row (None for the root),
    a path holds its rows' entries instead.
    """
    n_rows = 1 + sum(len(r.parent) for r in points)
    parent = np.zeros(n_rows, dtype=np.int64)  # the root's is itself
    step = np.zeros(n_rows, dtype=np.int64)  # each row's index into ``steps``
    at = np.zeros(n_rows, dtype=np.int64)  # each row's place in ``order``
    order = np.zeros(1, dtype=np.int64)
    first, steps = 1, [None]  # the root's padding, then each point's (tau, x, label) tuples
    for r in points:
        if len(r.parent):
            rows = np.arange(first, first + len(r.parent))
            first += len(rows)
            parent[rows] = r.parent
            step[rows] = r.outcome + len(steps)
            at[order] = np.arange(len(order))
            children = np.bincount(at[r.parent], minlength=len(order))
            width = np.maximum(children, 1)
            order = np.repeat(order, width)
            order[np.repeat(children > 0, width)] = rows
        steps += [(r.point.tau, r.point.x, label) for label in r.labels]
    steps = np.fromiter(steps, dtype=object, count=len(steps))
    if events is not None:
        steps, step = events, np.arange(n_rows)
    levels, rows = [], order
    while rows.any():
        levels.append(steps[step[rows]].tolist())
        rows = parent[rows]
    if not levels:  # the root is the only leaf
        return order, [()]
    paths = zip(*reversed(levels))
    if None in levels[-1]:
        paths = map(tuple, map(partial(filter, None), paths))
    return order, list(paths)


# ---------------------------------------------------------------------------
# branching on support factors, over the whole live frontier


class _Family(namedtuple("_Family", ("point", "support", "labels", "iso", "counts", "fires",
                                     "keep"))):
    """Outcomes to fork over at one point, for each entry branch of the leaf.

    ``iso[b, k]`` is the isometry of outcome k at entry branch b, rows in
    the slot order of ``support`` (see :mod:`eventnet.linalg` for the
    padding); ``counts[b]`` is the number of outcomes there and ``fires[b]``
    whether the family applies there (all three ndarrays).  An imposed
    family is the same at every branch, a broadcast view of one stack, and
    always applies.  The rows the family makes share ``iso``
    (:class:`TreeRows`).  ``keep`` names the cells a branch still needs
    once the point is done; it, ``support`` and ``labels`` are tuples.
    """

    __slots__ = ()


def _keep_cells(net: AlgebraNet, foliation: Foliation,
                imposed: Mapping[Point, tuple],
                gates: Mapping[int, tuple]) -> list[list[tuple[int, ...]]]:
    """Per leaf and point, the cells that later points and propagators touch.

    Walks the foliation backwards.  A detected or imposed family reads and
    acts on its support, and a propagator, a family of one outcome, on the
    cells it is localized to.
    """
    later: frozenset[int] = frozenset()
    keep: list[list[tuple[int, ...]]] = []
    for li in reversed(range(len(foliation.leaves))):
        row = []
        for pt in reversed(foliation.leaves[li]):
            row.append(tuple(sorted(later)))
            later = later.union(imposed[pt][0] if pt in imposed else net.support(pt))
        keep.append(row[::-1])
        if li in gates:
            later = later.union(gates[li][0])
    return keep[::-1]


def _reduce(rho: np.ndarray, cells: tuple[int, ...], keep: tuple[int, ...],
            cell_dim: int) -> np.ndarray:
    """Partial trace of a stack of states on ``cells`` down to ``keep``, slots as listed."""
    if keep == cells:
        return rho
    pos = tuple(cells.index(c) for c in keep)
    return linalg.partial_trace(rho, pos, len(cells), cell_dim)


def _apply_gate(rho: np.ndarray, cells: tuple[int, ...], gate: tuple,
                cell_dim: int, in_place: bool = False) -> np.ndarray:
    """A stack of states on ``cells`` conjugated by a gate ``(support, U^H as one outcome)``.

    With ``in_place``, ``rho`` is a stack the caller owns and may lose: see :func:`_collapse`.
    """
    zeros = np.zeros(len(rho), dtype=np.intp)
    return _collapse(rho, cells, gate[0], cells, gate[1], zeros, np.arange(len(rho)), zeros,
                     cell_dim, gate=True, in_place=in_place)


def _leaf_families(net: AlgebraNet, leaf: Sequence[Point], keep: Sequence[tuple[int, ...]],
                   rho: np.ndarray, cells: tuple[int, ...],
                   imposed: Mapping[Point, tuple], policy: NumericPolicy):
    """One family per point of the leaf, detected on the stack of entry states.

    Detection is one batched partial trace and one clustered batched
    ``eigh`` per point (:func:`linalg.spectral_isometries`); the happened
    test (:func:`event_happened`) becomes the family's ``fires`` mask.
    Returns (families, dims_seen), dims_seen holding the outcome count of
    every detection for diagnostics.
    """
    branches = len(rho)
    families, dims_seen = [], set()
    for pt, after in zip(leaf, keep):
        if pt in imposed:
            support, labels, iso = imposed[pt]
            families.append(_Family(pt, support, labels,
                                    np.broadcast_to(iso, (branches,) + iso.shape),
                                    np.full(branches, len(iso)),
                                    np.ones(branches, dtype=bool), after))
            dims_seen.add(len(iso))
            continue
        support = net.support(pt)
        weights, counts, iso = linalg.spectral_isometries(
            _reduce(rho, cells, support, net.cell_dim), policy.gap_min)
        dims_seen.update(counts.tolist())
        families.append(_Family(pt, support, tuple(range(iso.shape[1])), iso, counts,
                                event_happened(weights, policy), after))
    return families, dims_seen


def _family_commutators(families: Sequence[_Family],
                        cell_dim: int) -> list[tuple[Point, Point, np.ndarray]]:
    """Worst commutator norm between every two families, per entry branch.

    Returns (p, q, norms) for every two families that both fire on some
    entry branch; ``norms[b]`` is the worst norm at branch b
    (:func:`linalg.max_commutator_norm`, which reads the branches where
    both fire from the two family stacks), and 0.0 where either does not
    fire.  Families on disjoint supports commute exactly and give 0.0.
    """
    out = []
    for i, a in enumerate(families):
        for b in families[i + 1:]:
            both = a.fires & b.fires
            if not both.any():
                continue
            norms = np.zeros(len(both))
            norms[both] = linalg.max_commutator_norm(a.iso, b.iso, (a.support, b.support),
                                                     cell_dim, np.flatnonzero(both))
            out.append((a.point, b.point, norms))
    return out


def _born_weights(rho: np.ndarray, cells: tuple[int, ...], support: tuple[int, ...],
                  family: np.ndarray, origin: np.ndarray, cell_dim: int) -> np.ndarray:
    """Weights tr(V^H rho_S V) of every outcome of every parent, clipped at 0.

    ``rho`` is a stack of parent states and ``family[origin[i]]`` the
    isometry stack of parent i's family; padding outcomes weigh 0.  The
    parents are taken in blocks of :func:`linalg.block_size`, so that each
    of a block's temporaries, of the size of its isometry stacks, fits
    :data:`linalg.BLOCK_ENTRIES`; a parent's weights do not depend on its
    block.  Each block writes its rows of the result, which is allocated
    once.
    """
    n, (outcomes, ds, rank) = len(origin), family.shape[1:]
    rho_s = _reduce(rho, cells, support, cell_dim)
    step = linalg.block_size(outcomes * ds * rank)
    out = np.empty((n, outcomes))
    for p in range(0, n, step):
        v = family[origin[p:p + step]]  # a copy, so conjugated in place
        w = rho_s[p:p + step, None] @ v
        w *= np.conj(v, out=v)
        out[p:p + step] = w.sum(axis=(-2, -1)).real
    return np.clip(out, 0.0, None, out=out)


def _collapse(rho: np.ndarray, cells: tuple[int, ...], support: tuple[int, ...],
              keep: tuple[int, ...], family: np.ndarray, origin: np.ndarray,
              rows: np.ndarray, ks: np.ndarray, cell_dim: int, gate: bool = False,
              in_place: bool = False) -> np.ndarray:
    """Conditioned states on ``keep``: outcome ``ks[c]`` of parent ``rows[c]``, for every c.

    ``rho`` is a stack of parent states and ``family[origin[i]]`` the
    isometry stack of parent i's family; ``rows`` (sorted) and ``ks`` are
    the children that :func:`_branch_point` chose.  The cells no outcome
    reads and no later point keeps are traced out first; ``V^H`` is then
    contracted on the support axes of every parent, for each of its
    outcomes, and V for the chosen children alone, whose held cells are
    expanded in a product that traces the dropped ones out
    (:func:`_conditioned`).  Each state is divided by its own trace, not by
    its Born weight, which is taken separately on the support state: for
    weights near 1e-6 the two differ enough to miss unit trace by more than
    ``tol_trace``.  With ``gate``, V = U^H for a propagator U, its rank axes the support's own
    slots, all kept: ``V^H rho V`` is the state, not expanded by V, and keeps its trace.
    A gate makes child c of parent c, so with ``in_place`` each block is written back over
    the parents it read, and ``rho`` is the result when there is more than one block.

    The parents are taken in blocks of consecutive ones, each as large as
    :func:`linalg.block_size` allows for the largest temporary: per parent,
    the contracted stack of ``outcomes * rank * ds * dr**2`` entries, of
    which its chosen children's share is gathered, or the states of its
    children, at most ``outcomes * (dh * dr)**2``, where
    ``dr`` and ``dh`` are the dimensions of the kept cells off and on the
    support.  Each block gathers its parents' isometry stacks from
    ``family``.  A block's children are a slice of the result, normalized
    in place.  When one block holds every parent, its own stack is the
    result.  Every child is computed alone, so the states do not depend on
    the block size, and replaying one child (:meth:`HistoryTree._replay`)
    with the same ``family`` gives the state its block gave.
    """
    n, (outcomes, ds, rank) = len(origin), family.shape[1:]
    dr = cell_dim ** sum(c not in support for c in keep)
    dh = cell_dim ** sum(c in keep for c in support)
    # per parent: the contracted stack, and the states of at most ``outcomes`` children
    step = linalg.block_size(outcomes * dr * dr * max(rank * ds, dh * dh))
    if step >= n:
        out = _conditioned(rho, cells, support, keep, family[origin], rows, ks, cell_dim, gate)
        return out if gate else linalg.trace_normalize_in_place(out)
    dim = cell_dim ** len(keep)
    out = rho if in_place else np.empty((len(ks), dim, dim), dtype=complex)
    for p in range(0, n, step):
        lo, hi = np.searchsorted(rows, (p, p + step))
        if lo < hi:
            out[lo:hi] = _conditioned(rho[p:p + step], cells, support, keep,
                                      family[origin[p:p + step]], rows[lo:hi] - p, ks[lo:hi],
                                      cell_dim, gate)
            if not gate:
                linalg.trace_normalize_in_place(out[lo:hi])
    return out


def _conditioned(rho: np.ndarray, cells: tuple[int, ...], support: tuple[int, ...],
                 keep: tuple[int, ...], iso: np.ndarray, rows: np.ndarray, ks: np.ndarray,
                 cell_dim: int, gate: bool) -> np.ndarray:
    """One block of :func:`_collapse`: the children's states before normalization.

    Slots: s on the support, h on its kept (held) cells, x on its dropped
    ones, a and b on the kept cells off it, r and q on an outcome's rank.
    The parents' states are reduced to the support and those cells
    (:func:`_reduce`) and laid out ``[s, a, b, s']``.  ``V^H rho`` is then
    taken for every outcome of every parent, and ``y = (V^H rho) V`` for
    the chosen children only, gathered first, so that ``y[r, a, b, q]`` is
    ``(V^H rho V)[(r, a), (q, b)]``.  The held cells are expanded by two
    batched products per child, ``z = V y`` and ``z conj(V)^T``, the second
    contracting (x, q), so that it traces the dropped cells out.  Without
    held cells the rank axes are traced instead, and a gate's y is already
    the state.  Each form is ``[h, a, h', b]``, and one final copy puts its
    slots in the order of ``keep``.
    """
    d = cell_dim
    n, outcomes, ds, rank = iso.shape
    rest = tuple(c for c in keep if c not in support)
    held = tuple(c for c in support if c in keep)
    dropped = tuple(c for c in support if c not in keep)
    dr, dh, m = d ** len(rest), d ** len(held), len(ks)
    # each stage takes the name of the one before, so that none outlives the next
    y = _reduce(rho, cells, support + rest, d).reshape(n, ds, dr, ds, dr).swapaxes(-1, -2)
    y = y.reshape(n, 1, ds, dr * dr * ds)
    y = iso.conj().swapaxes(-1, -2) @ y  # [k, r, a, b, s'] per parent
    v = iso[rows, ks]
    y = y.reshape(n, outcomes, rank * dr * dr, ds)[rows, ks] @ v
    if gate:  # y[c, r, a, b, q] = (U rho U^H)[(r, a), (q, b)], r and q the held slots
        out = y.reshape(m, rank, dr, dr, rank).swapaxes(-1, -2)
    elif held:
        dx, ls = ds // dh, len(support)
        v = v.reshape((m,) + (d,) * ls + (rank,))
        v = v.transpose([0] + [1 + support.index(c) for c in held + dropped] + [ls + 1])
        v = v.reshape(m, ds, rank)  # slots [h, x]
        # V y is [h, x, a, b, q]; regrouped [h, a, b, (x, q)], it meets conj(V)^T over (x, q)
        out = (v @ y.reshape(m, rank, dr * dr * rank)).reshape(m, dh, dx, dr * dr, rank)
        out = out.swapaxes(2, 3).reshape(m, dh * dr * dr, dx * rank)
        out = out @ v.reshape(m, dh, dx * rank).conj().swapaxes(-1, -2)
        out = out.reshape(m, dh, dr, dr, dh).swapaxes(-1, -2)
    else:
        out = np.einsum("irabr->iab", y.reshape(m, rank, dr, dr, rank))
    slots, k = held + rest, len(keep)
    perm = [slots.index(c) for c in keep]
    out = out.reshape((m,) + (d,) * (2 * k))
    out = out.transpose([0] + [1 + p for p in perm] + [1 + k + p for p in perm])
    dim = d ** k
    return out.reshape(m, dim, dim)


class _Frontier(namedtuple("_Frontier", ("rho", "cells", "row", "cum", "origin", "draws"))):
    """The live branches, as one stack of states on the same cells.

    Branch i has state ``rho[i]`` on the tuple of ``cells``, is tree row
    ``row[i]``, of path probability ``cum[i]``, and descends from entry
    branch ``origin[i]`` of the current leaf; the columns are ndarrays, and
    ``draws`` is None when enumerating.
    """

    __slots__ = ()


def _branch_point(front: _Frontier, fam: _Family, li: int, net: AlgebraNet,
                  policy: NumericPolicy, gen: np.random.Generator | None,
                  first: int) -> tuple[_Frontier, TreeRows, float, tuple]:
    """Apply one point's family to every live branch.

    Returns the new frontier, the tree rows of the children (numbered from
    ``first`` on), the pruned mass, and the rows the family fires on with
    their outcomes' total weights, each row's ``children_prob_sum``.
    Weights come first; only the children kept (or drawn) are collapsed.
    Every branch, fired or not, is reduced to ``fam.keep``, and each is
    replaced in place by its children, so the frontier stays in tree order.
    When the family fires on every branch, the frontier's columns are read
    as they are, not gathered.
    """
    d, floor, cap = net.cell_dim, policy.prob_floor, policy.branch_cap
    fires = fam.fires[front.origin]
    still = np.flatnonzero(~fires)
    fired = np.flatnonzero(fires) if len(still) else slice(None)
    sub, origin, cum, row = (a[fired] for a in (front.rho, front.origin, front.cum, front.row))
    counts = fam.counts[origin]
    probs = _born_weights(sub, front.cells, fam.support, fam.iso, origin, d)
    cums = cum[:, None] * probs
    valid = np.arange(probs.shape[1]) < counts[:, None]
    # a zero weight is never kept, so no child is divided by a zero trace
    kept = valid & (cums >= floor) & (probs > 0.0)
    alive = kept.any(axis=1)
    pruned = float(cums[alive[:, None] & valid & ~kept].sum())
    # a parent whose every outcome is pruned is a leaf with its own mass and draws
    take = kept
    if front.draws is not None:
        live = np.flatnonzero(alive)
        split = np.zeros(probs.shape, dtype=np.int64)
        for f, n, k in zip(live.tolist(), front.draws[fired][live].tolist(),
                           counts[live].tolist()):
            w = probs[f, :k]
            split[f, :k] = gen.multinomial(n, w / w.sum())
        if split[~kept].any():
            raise NullBranchError("sampled an outcome below prob_floor")
        take = kept & (split > 0)
    rows, ks = np.nonzero(take)
    draws = None if front.draws is None else split[rows, ks]
    if len(still) + len(rows) > cap:
        raise BranchOverflowError(f"branching exceeded the branch cap of {cap}")
    states = _collapse(sub, front.cells, fam.support, fam.keep, fam.iso, origin, rows, ks, d)
    made = TreeRows(li, fam.point, fam.labels, fam.support, fam.keep, fam.iso, row[rows],
                    origin[rows], ks, probs[rows, ks], cums[rows, ks], counts[rows], draws)
    new = _Frontier(states, fam.keep, first + np.arange(len(ks)), made.cum_prob, made.origin,
                    draws)
    if len(still):
        # merge the branches the family skipped back in, each before the children
        # of later branches: every column is allocated once, and each part is
        # written to its places
        parents = fired[rows]
        at_still = np.arange(len(still)) + np.searchsorted(parents, still)
        at_new = np.arange(len(parents)) + np.searchsorted(still, parents)
        skipped = _Frontier(_reduce(front.rho[still], front.cells, fam.keep, d), fam.keep,
                            *(None if a is None else a[still] for a in front[2:]))
        new = _Frontier(*(b if a is None or isinstance(a, tuple)
                          else _merged(a, at_still, b, at_new) for a, b in zip(skipped, new)))
    return new, made, pruned, (row, probs.sum(axis=1))


def _merged(a: np.ndarray, at_a: np.ndarray, b: np.ndarray, at_b: np.ndarray) -> np.ndarray:
    """One array holding ``a[i]`` at ``at_a[i]`` and ``b[i]`` at ``at_b[i]``."""
    out = np.empty((len(a) + len(b),) + a.shape[1:], dtype=np.result_type(a, b))
    out[at_a] = a
    out[at_b] = b
    return out


def _check_foliation(lattice: CausalLattice, foliation: Foliation) -> None:
    """Refuse, with ``ValueError``, leaves that do not foliate ``lattice``.

    Each point lies on the lattice and is listed once, the points of a
    leaf are pairwise spacelike, and no point lies in the causal past of a
    point on an earlier leaf, under the rule of :func:`causal_relate`: q is
    causally related to p when ``|q.x - p.x| <= speed * |q.tau - p.tau|``.
    Every pair is compared at once, in row blocks of :func:`linalg.block_size`.
    """
    points = [pt for leaf in foliation.leaves for pt in leaf]
    if outside := [pt for pt in points if not lattice.contains(pt)]:
        raise ValueError(f"foliation points outside the lattice: {outside}")
    # each point's tau, x and leaf, as listed
    tau, x, leaf = np.array([(*pt, li) for li, lf in enumerate(foliation.leaves) for pt in lf],
                            dtype=np.int64).reshape(-1, 3).T
    n = len(points)
    # any speed of at least extent_x relates the same pairs, and this one cannot overflow
    speed = min(lattice.speed, lattice.extent_x)
    step = linalg.block_size(max(n, 1))
    index = np.arange(n)
    for s in range(0, n, step):
        rows = slice(s, s + step)
        dt = tau - tau[rows, None]  # q.tau - p.tau for p = points[row] and q = points[column]
        # a bad pair: p is listed before q and related to it, on one leaf or with q not later
        bad = ((np.abs(x - x[rows, None]) <= speed * np.abs(dt))
               & ((leaf == leaf[rows, None]) | (dt <= 0)) & (index > index[rows, None]))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            p, q = points[s + i], points[j]
            if causal_relate(lattice, p, q) is Relation.EQUAL:
                raise ValueError(f"foliation lists {p} twice")
            if leaf[s + i] == leaf[j]:
                raise ValueError(f"foliation leaf {leaf[j]} holds {p} and {q}, "
                                 "which are not spacelike")
            raise ValueError(f"foliation point {q} on leaf {leaf[j]} lies in the causal past "
                             f"of {p} on the earlier leaf {leaf[s + i]}")


def _grow(net: AlgebraNet, foliation: Foliation, initial: State, policy: NumericPolicy,
          imposed: Mapping[Point, PotentialEvent] | None,
          propagators: Mapping[int, object] | None, commutation: str,
          draws: int | None = None,
          gen: np.random.Generator | None = None) -> tuple[HistoryTree, _Frontier]:
    """The branching engine behind :func:`enumerate_tree` and the samplers.

    With ``draws=None`` every outcome that is not pruned is expanded.  With
    ``draws=n`` the root holds ``n`` draws, each parent splits its draws
    over the outcomes with one multinomial draw from ``gen``, in
    point-major frontier order, and only the outcomes that receive draws
    are expanded.  Returns the tree and the last frontier that held a live
    branch: the final one, or the one a family ended every branch of.
    """
    if commutation not in ("warn", "abort"):
        raise ValueError("commutation policy must be 'warn' or 'abort'")
    _check_foliation(net.lattice, foliation)
    imposed, propagators = imposed or {}, propagators or {}
    points = {pt for leaf in foliation.leaves for pt in leaf}
    if not set(imposed) <= points:
        raise ValueError(f"imposed families off the foliation: {list(set(imposed) - points)}")
    if not set(propagators) <= set(range(len(foliation.leaves))):
        raise ValueError(f"propagator keys are not all leaf indices: {list(propagators)}")
    if initial.dim != net.dim:
        raise DimensionMismatchError(f"the initial state has dimension {initial.dim}, "
                                     f"not the net's {net.dim}")
    # found once per run on the fewest cells each acts on: (support, U^H as a family of
    # one outcome) per propagator U and (support, labels, isometry stack) per imposed
    # family; localizing refuses a propagator or a family that is not on the net
    gates = {li: net.localize([_unitary(u, policy)], policy.tol_proj)
             for li, u in propagators.items()}
    gates = {li: (support, u.conj().T[None, None]) for li, (support, (u,)) in gates.items()}
    local = {}
    for pt, fam in imposed.items():
        support, factors = net.localize([p.entries for p in fam.projections], policy.tol_proj)
        local[pt] = (support, fam.labels, linalg.range_isometries(factors))
    keep = _keep_cells(net, foliation, local, gates)
    front = _Frontier(initial.rho[None], tuple(range(net.n_cells)), np.zeros(1, dtype=np.int64),
                      np.ones(1), np.zeros(1, dtype=int),
                      None if draws is None else np.array([draws]))
    points: list[TreeRows] = []
    totals = []  # each point's (parent rows, children_prob_sum)
    n_rows = 1
    last = front
    pruned = 0.0
    dims: set[int] = set()
    comm: list[tuple[int, Point, Point, float]] = []

    for li, leaf in enumerate(foliation.leaves):
        if not len(front.row):
            break
        if li in gates:
            # the frontier is this run's own, unless it is still the initial state's
            front = front._replace(rho=_apply_gate(front.rho, front.cells, gates[li],
                                                   net.cell_dim, front.rho.flags.writeable))
        families, dims_seen = _leaf_families(net, leaf, keep[li], front.rho, front.cells,
                                             local, policy)
        dims.update(dims_seen)
        pairs = _family_commutators(families, net.cell_dim)
        if commutation == "abort" and pairs:
            bad = np.stack([norms for *_, norms in pairs]) > policy.tol_commutation
            if bad.any():
                # the first entry branch with a bad pair, then that branch's first bad pair
                row = int(np.argmax(bad.any(axis=0)))
                pa, pb, norms = pairs[int(np.argmax(bad[:, row]))]
                raise CommutationError(f"spacelike families at {pa} and {pb} fail to "
                                       f"commute (norm {norms[row]:.3e})")
        comm += [(li, pa, pb, float(norms.max())) for pa, pb, norms in pairs]
        front = front._replace(origin=np.arange(len(front.row)))
        for fam in families:
            last = front if len(front.row) else last
            front, made, lost, weighed = _branch_point(front, fam, li, net, policy, gen, n_rows)
            points.append(made)
            pruned += lost
            totals.append(weighed)
            n_rows += len(made.parent)
    sums = np.full(n_rows, np.nan)
    for rows, values in totals:
        sums[rows] = values
    comm.sort()
    tree = HistoryTree(foliation, pruned, sorted(dims), comm, initial, net, policy, gates,
                       points, sums)
    return tree, front if len(front.row) else last


def enumerate_tree(net: AlgebraNet, foliation: Foliation, initial: State,
                   *, policy: NumericPolicy = DEFAULT_POLICY,
                   imposed: Mapping[Point, PotentialEvent] | None = None,
                   propagators: Mapping[int, object] | None = None,
                   commutation: str = "warn") -> HistoryTree:
    """Enumerate every branch of the event tree along the foliation.

    Per leaf and per branch: detect families from the branch entry state,
    then fork over outcomes point by point in spatial order, conditioning
    the state as outcomes accumulate.  An outcome whose cumulative
    probability falls below ``prob_floor`` is pruned and its mass added to
    ``pruned_mass``, unless every outcome of that family is pruned: then
    the parent stays a leaf holding its own mass, and nothing is added.
    An outcome of weight 0 is pruned too, even at ``prob_floor=0``.
    ``propagators`` optionally maps a leaf index to a unitary on the whole
    net, applied to every branch before that leaf is processed.  The tree
    is held as rows, and its node objects are built when ``root`` is first
    read (see :class:`HistoryTree`).  Leaves that do not foliate the net's
    lattice (a point off it or listed twice, a leaf with causally related
    points, or a point in the causal past of a point on an earlier leaf),
    an imposed family at a point outside the foliation, a propagator key
    that is not a leaf index, an initial state, family or propagator not
    on the net's dimension, or a propagator with a NaN or infinite entry
    raises before any branching.

    ``commutation`` controls the response to non-commuting spacelike
    families: "warn" records them, "abort" raises for the first entry
    branch of a leaf, and the first pair of points there, whose norm
    exceeds ``tol_commutation``.  The branch cap holds for the whole
    frontier: after the outcomes of each point are chosen, and before
    any is collapsed, more than ``policy.branch_cap`` live branches (the
    children just made plus the branches the point's family skipped)
    raise :class:`BranchOverflowError`.
    """
    tree, _ = _grow(net, foliation, initial, policy, imposed, propagators, commutation)
    return tree


class SampledHistory(namedtuple("SampledHistory", ("events", "final_state", "final_cells",
                                                   "probability", "max_commutator",
                                                   "spectrum_dims"))):
    """One Monte-Carlo trajectory through the event tree.

    ``events`` is a tuple of :class:`ActualEvent`.  ``final_state`` is the
    conditioned :class:`State` on the tuple of cells ``final_cells``, the
    ones a branch still carries at the end (see :class:`BranchNode`): none
    at the end of the foliation, and those kept after its last point for a
    branch that ended early because every outcome was pruned.
    ``probability`` and ``max_commutator`` are floats, ``spectrum_dims`` a
    list of ints.
    """

    __slots__ = ()


def sample_history(net: AlgebraNet, foliation: Foliation, initial: State,
                   seed=None, *, policy: NumericPolicy = DEFAULT_POLICY,
                   imposed: Mapping[Point, PotentialEvent] | None = None,
                   propagators: Mapping[int, object] | None = None,
                   commutation: str = "warn") -> SampledHistory:
    """Draw a single history by iterated Born sampling along the foliation.

    This is :func:`sample_paths` with one draw from
    ``np.random.default_rng(seed)``; ``seed`` may be a Generator, which is
    then drawn from as it is.  The history ends at a leaf of the enumerated
    tree, or the draw lands on pruned mass and raises
    :class:`NullBranchError`.  The live branches are capped by
    ``policy.branch_cap`` as in :func:`enumerate_tree`.
    """
    tree, end = _grow(net, foliation, initial, policy, imposed, propagators, commutation,
                      draws=1, gen=np.random.default_rng(seed))
    # one draw grows a single path: one leaf, whose branch is the one row of ``end``
    ((events, probability),) = tree.leaf_paths()
    return SampledHistory(events=events, final_state=State(end.rho[0], policy=policy),
                          final_cells=end.cells, probability=probability,
                          max_commutator=tree.max_commutator,
                          spectrum_dims=tree.spectrum_dims)


class SampleSummary(namedtuple("SampleSummary", ("n_samples", "seed", "counts",
                                                 "max_commutator", "spectrum_dims"))):
    """Aggregate of repeated history sampling under one run seed.

    ``n_samples`` is an int, ``seed`` the run's seed as given, ``counts`` a
    dict of path key (a tuple) to int, ``max_commutator`` a float and
    ``spectrum_dims`` a list of ints.
    """

    __slots__ = ()

    def frequencies(self) -> dict[tuple, float]:
        return {k: v / self.n_samples for k, v in self.counts.items()}


def sample_paths(net: AlgebraNet, foliation: Foliation, initial: State,
                 n_samples: int, seed=None,
                 *, policy: NumericPolicy = DEFAULT_POLICY,
                 imposed: Mapping[Point, PotentialEvent] | None = None,
                 propagators: Mapping[int, object] | None = None,
                 commutation: str = "warn") -> SampleSummary:
    """Sample many histories from one Generator seeded with ``seed``.

    Each parent splits its draws over its outcomes with one multinomial
    draw, so the tree grows only along outcomes some draw reaches and each
    node is expanded once.  The multinomials are drawn point by point, in
    frontier order at each point.  Pruning follows :func:`enumerate_tree`:
    a draw on an outcome below ``prob_floor`` raises
    :class:`NullBranchError`, and a node whose every outcome is pruned is
    a leaf that keeps its draws.  ``policy.branch_cap`` caps the live
    branches as in enumeration, but at most ``n_samples`` are live, so
    trees too large to enumerate can still be sampled.  Path keys are
    tuples of (tau, x, label), in the order of the tree's leaves (see
    :meth:`HistoryTree.leaf_paths`), and only the leaves' keys are built,
    from the rows in one pass (:func:`_leaf_paths`), with each leaf's draws
    read off its row; identical seeds give identical summaries,
    though not those of releases that drew from one spawned Generator per
    sample, or branch by branch.  ``max_commutator`` and ``spectrum_dims``
    cover the branches the draws visited.
    """
    if not is_integer_at_least(n_samples, 1) or n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples {n_samples!r} is not an integer of at least 1 and at most "
                         f"{MAX_SAMPLES}")
    tree, _ = _grow(net, foliation, initial, policy, imposed, propagators, commutation,
                    draws=n_samples, gen=np.random.default_rng(seed))
    leaves, paths = _leaf_paths(tree._rows)
    draws = _column(tree._rows, "draws", n_samples)[leaves].tolist()
    return SampleSummary(n_samples=n_samples, seed=seed, counts=dict(zip(paths, draws)),
                         max_commutator=tree.max_commutator,
                         spectrum_dims=tree.spectrum_dims)
