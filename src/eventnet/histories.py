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
or not an event fired on the branch there.  An imposed family and a
propagator act on the fewest cells they touch.

One engine (:func:`_grow`) runs enumeration and both samplers, over the
whole live frontier at once.  All live branches carry the same cells, so
their states form one ``(B, D, D)`` stack.  Per leaf, detection is one
batched partial trace and one batched ``eigh`` per point on the stack of
entry states, and each outcome is held by its eigenvector isometry V.
Per point, the Born weights ``tr(V^H rho_S V)`` of every outcome of every
branch come first; only the kept (or drawn) children are then collapsed,
with V contracted on the support axes, and recorded as one block of tree
rows.  Each branch is replaced in place by its children, so the frontier
stays in tree order.  Commutator norms of two families are taken by
principal angles (:func:`linalg.max_commutator_norm`), for every entry
branch at once.  Node objects are built, and their states checked, only
when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

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


@dataclass
class HistoryOperator:
    """Product of event projections in causal order (earliest rightmost)."""

    events: tuple[ActualEvent, ...]
    matrix: np.ndarray
    spacelike_norms: list[tuple[Point, Point, float]]
    flagged: bool


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
        # ||[1 - p, q]|| = ||[p, q]||
        ranges = {}
        for ev in ordered:
            p = ev.projection.entries
            ranges[ev.point] = linalg.range_isometries([p, np.eye(p.shape[0]) - p])
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if causal_relate(lattice, a.point, b.point) is Relation.SPACELIKE:
                    norm = linalg.max_commutator_norm(ranges[a.point], ranges[b.point])
                    norms.append((a.point, b.point, norm))
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
    """The propagator's matrix, after checking that it is unitary."""
    mat = _as_matrix(u)
    defect = linalg.operator_norm(mat.conj().T @ mat - np.eye(mat.shape[0]))
    if defect > policy.tol_proj:
        raise ValueError(f"propagator is not unitary (defect {defect:.3e})")
    return mat


def apply_propagator(u, state: State, *, policy: NumericPolicy = DEFAULT_POLICY) -> State:
    """Conjugate the state by a unitary, verifying unitarity first."""
    mat = _unitary(_as_matrix(u, state.dim), policy)
    return State(mat @ state.rho @ mat.conj().T, policy=policy)


@dataclass(eq=False)
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
    state on every cell, and any other node a row of the state stack its
    point made (see :class:`HistoryTree`).  ``state_after`` is ``rho`` as a
    :class:`State`, built and checked under ``policy`` when first read.

    ``children_prob_sum`` is the total weight of the outcomes at the next
    applied family.  A node whose every outcome fell below ``prob_floor``
    keeps it but has no children: it stays a leaf holding its own mass.
    """

    leaf_index: int
    point: Point | None
    actual: ActualEvent | None
    rho: np.ndarray = field(repr=False)
    state_cells: tuple[int, ...]
    cond_prob: float
    cum_prob: float
    event_dim: int | None
    policy: NumericPolicy = field(default=DEFAULT_POLICY, repr=False)
    children: list["BranchNode"] = field(default_factory=list)
    children_prob_sum: float | None = None
    _state: State | None = field(default=None, repr=False)

    @property
    def state_after(self) -> State:
        if self._state is None:
            self._state = State(self.rho, policy=self.policy)
        return self._state


class _Block(NamedTuple):
    """The children one applied point made, as consecutive rows of the tree.

    Child c descends from row ``parent[c]`` by outcome ``outcome[c]`` of a
    family of ``event_dim[c]`` outcomes; ``iso[c]`` spans it on ``support``,
    ``rho[c]`` is its state on ``cells`` and ``draws[c]`` (None when
    enumerating) the draws that reached it.
    """

    leaf_index: int
    point: Point
    labels: tuple
    support: tuple[int, ...]
    cells: tuple[int, ...]
    parent: np.ndarray
    outcome: np.ndarray
    cond: np.ndarray
    cum: np.ndarray
    event_dim: np.ndarray
    iso: np.ndarray
    rho: np.ndarray
    draws: np.ndarray | None


class TreeRows(NamedTuple):
    """The rows one applied point added to a :class:`HistoryTree`, as Python values.

    Row c descends from row ``parent[c]`` by the outcome labelled
    ``labels[outcome[c]]``, on leaf ``leaf_index`` of the foliation.
    ``draws`` is None for an enumerated tree.
    """

    leaf_index: int
    point: Point
    labels: tuple
    parent: list[int]
    outcome: list[int]
    cond_prob: list[float]
    cum_prob: list[float]
    event_dim: list[int]
    draws: list[int] | None


@dataclass(eq=False)
class HistoryTree:
    """Full enumeration of histories along a foliation, held as rows.

    Row 0 is the root, and each applied point appends one :class:`_Block`
    of the children it made; ``children_prob_sum`` is one array over the
    rows, NaN where no family fired.  :meth:`rows` reads the record as
    Python lists without building a node, and is what the report and
    :func:`sample_paths` read.  ``root`` builds the :class:`BranchNode`
    and :class:`ActualEvent` objects of every row in one pass the first
    time it is read, and keeps them, for callers that want the objects.

    ``pruned_mass`` is the mass of outcomes dropped below ``prob_floor``
    beside a sibling that was kept.  The listed leaves and the pruned mass
    together hold every unit of probability once.
    """

    foliation: Foliation
    pruned_mass: float
    spectrum_dims: list[int]
    commutation_norms: list[tuple[int, Point, Point, float]]
    max_commutator: float
    _initial: State = field(repr=False)
    _net: AlgebraNet = field(repr=False)
    _policy: NumericPolicy = field(repr=False)
    _blocks: list[_Block] = field(repr=False)
    _sums: np.ndarray = field(repr=False)
    _root: BranchNode | None = field(default=None, repr=False)

    def rows(self) -> tuple[list[float | None], list[TreeRows]]:
        """Every row's ``children_prob_sum`` (None where no family fired), and each block's rows.

        The blocks' rows follow the root in order: the first row of a
        block is one past the last row of the block before.  A leaf is a
        row that no row names as its parent.
        """
        sums = [None if s != s else s for s in self._sums.tolist()]  # NaN is None
        return sums, [TreeRows(b.leaf_index, b.point, b.labels, b.parent.tolist(),
                               b.outcome.tolist(), b.cond.tolist(), b.cum.tolist(),
                               b.event_dim.tolist(), None if b.draws is None else b.draws.tolist())
                      for b in self._blocks]

    @property
    def root(self) -> BranchNode:
        if self._root is None:
            net, policy = self._net, self._policy
            sums, blocks = self.rows()
            nodes = [BranchNode(-1, None, None, self._initial.rho, tuple(range(net.n_cells)),
                                1.0, 1.0, None, policy, children_prob_sum=sums[0],
                                _state=self._initial)]
            for b, r in zip(self._blocks, blocks):
                for p, k, iso, rho, w, cum, dim in zip(r.parent, r.outcome, b.iso, b.rho,
                                                       r.cond_prob, r.cum_prob, r.event_dim):
                    actual = ActualEvent.from_isometry(b.point, b.labels[k], iso, b.support,
                                                       net, w)
                    node = BranchNode(b.leaf_index, b.point, actual, rho, b.cells, w, cum, dim,
                                      policy, children_prob_sum=sums[len(nodes)])
                    nodes[p].children.append(node)
                    nodes.append(node)
            self._root = nodes[0]
        return self._root

    def _walk_leaves(self):
        """Each leaf in tree order, with the events on its path from the root."""
        stack = [(self.root, ())]
        while stack:
            node, events = stack.pop()
            events += () if node.actual is None else (node.actual,)
            if not node.children:
                yield node, events
            stack.extend((child, events) for child in reversed(node.children))

    def leaves(self) -> list[BranchNode]:
        return [leaf for leaf, _ in self._walk_leaves()]

    def leaf_paths(self) -> list[tuple[tuple[ActualEvent, ...], float]]:
        """Each leaf's event sequence (causal order) and its path probability."""
        return [(events, leaf.cum_prob) for leaf, events in self._walk_leaves()]


# ---------------------------------------------------------------------------
# branching on support factors, over the whole live frontier


class _Family(NamedTuple):
    """Outcomes to fork over at one point, for each entry branch of the leaf.

    ``iso[b, k]`` is the isometry of outcome k at entry branch b, rows in
    the slot order of ``support`` (see :mod:`eventnet.linalg` for the
    padding); ``counts[b]`` is the number of outcomes there and ``fires[b]``
    whether the family applies there.  An imposed family is the same at
    every branch and always applies.  ``keep`` names the cells a branch
    still needs once the point is done.
    """

    point: Point
    support: tuple[int, ...]
    labels: tuple
    iso: np.ndarray
    counts: np.ndarray
    fires: np.ndarray
    keep: tuple[int, ...]


def _keep_cells(net: AlgebraNet, foliation: Foliation,
                imposed: Mapping[Point, tuple],
                gates: Mapping[int, tuple]) -> list[list[tuple[int, ...]]]:
    """Per leaf and point, the cells that later points and propagators touch.

    Walks the foliation backwards.  A detected or imposed family reads and
    acts on its support, and a propagator acts on the cells it is
    localized to.
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
    (:func:`linalg.max_commutator_norm`), and 0.0 where either does not
    fire.  Families on disjoint supports commute exactly and give 0.0.
    """
    out = []
    for i, a in enumerate(families):
        for b in families[i + 1:]:
            both = a.fires & b.fires
            if not both.any():
                continue
            rows = np.flatnonzero(both)
            norms = np.zeros(len(both))
            norms[rows] = linalg.max_commutator_norm(a.iso[rows], b.iso[rows],
                                                     (a.support, b.support), cell_dim)
            out.append((a.point, b.point, norms))
    return out


def _born_weights(rho: np.ndarray, cells: tuple[int, ...], support: tuple[int, ...],
                  iso: np.ndarray, cell_dim: int) -> np.ndarray:
    """Weights tr(V^H rho_S V) of every outcome of every parent, clipped at 0.

    ``rho`` is a stack of parent states and ``iso[i]`` the isometry stack
    of parent i's family; padding outcomes weigh 0.
    """
    rho_s = _reduce(rho, cells, support, cell_dim)
    return np.clip(np.sum(iso.conj() * (rho_s[:, None] @ iso), axis=(-2, -1)).real, 0.0, None)


def _collapse(rho: np.ndarray, cells: tuple[int, ...], support: tuple[int, ...],
              keep: tuple[int, ...], iso: np.ndarray, rows: np.ndarray, ks: np.ndarray,
              cell_dim: int) -> np.ndarray:
    """Conditioned states on ``keep``: outcome ``ks[c]`` of parent ``rows[c]``, for every c.

    ``rho`` is a stack of parent states and ``iso[i]`` the isometry stack
    of parent i's family.  The cells no outcome reads and no later point
    keeps are traced out first; V is then contracted on the support axes,
    for each parent with a child once, and the support cells that are not
    kept are traced out with it.  Each state is divided by its own trace,
    not by its Born weight, which is taken separately on the support
    state: for weights near 1e-6 the two differ enough to miss unit trace
    by more than ``tol_trace``.
    """
    d = cell_dim
    # rows ascend; keep the parents that have a child, once each
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    if first.sum() < len(rho):
        rho, iso = rho[rows[first]], iso[rows[first]]
    rows = np.cumsum(first) - 1
    n, outcomes, ds, rank = iso.shape
    rest = tuple(c for c in keep if c not in support)
    held = tuple(c for c in support if c in keep)
    dropped = tuple(c for c in support if c not in keep)
    dr = d ** len(rest)
    t = _reduce(rho, cells, support + rest, d).reshape(n, 1, ds, dr * ds * dr)
    # y[c, r, a, b, q] = (V^H rho V)[(r, a), (q, b)], a and b on the kept rest cells
    t = (iso.conj().swapaxes(-1, -2) @ t).reshape(n, outcomes, rank, dr, ds, dr)
    t = t.swapaxes(-1, -2).reshape(n, outcomes, rank * dr * dr, ds)
    y = (t @ iso)[rows, ks].reshape(len(ks), rank, dr, dr, rank)
    if held:
        pos = [support.index(c) for c in held + dropped]
        v = iso[rows, ks].reshape((len(ks),) + (d,) * len(support) + (rank,))
        v = v.transpose([0] + [1 + p for p in pos] + [len(support) + 1])
        v = v.reshape(len(ks), d ** len(held), d ** len(dropped), rank)
        out = np.einsum("ihsr,irabq->ihabsq", v, y)
        out = np.einsum("ihabsq,iksq->ihakb", out, v.conj())
        slots = held + rest
        if slots != keep:
            k = len(keep)
            perm = [slots.index(c) for c in keep]
            out = out.reshape((len(ks),) + (d,) * (2 * k))
            out = out.transpose([0] + [1 + p for p in perm] + [1 + k + p for p in perm])
    else:
        out = np.einsum("irabr->iab", y)
    dim = d ** len(keep)
    return linalg.trace_normalized(out.reshape(len(ks), dim, dim))


class _Frontier(NamedTuple):
    """The live branches, as one stack of states on the same cells.

    Branch i is tree row ``row[i]``, of path probability ``cum[i]``, and
    descends from entry branch ``origin[i]`` of the current leaf; ``draws``
    is None when enumerating.
    """

    rho: np.ndarray
    cells: tuple[int, ...]
    row: np.ndarray
    cum: np.ndarray
    origin: np.ndarray
    draws: np.ndarray | None


def _branch_point(front: _Frontier, fam: _Family, li: int, net: AlgebraNet,
                  policy: NumericPolicy, gen: np.random.Generator | None,
                  sums: np.ndarray) -> tuple[_Frontier, _Block, float]:
    """Apply one point's family to every live branch: new frontier, block, pruned mass.

    ``sums`` has one entry per row so far, and the children's rows come
    next; each row the family fires on gets its outcomes' total weight
    there.  Weights come first; only the children kept (or drawn) are
    collapsed.  Every branch, fired or not, is reduced to ``fam.keep``, and
    each is replaced in place by its children, so the frontier stays in tree order.
    """
    d, floor, cap = net.cell_dim, policy.prob_floor, policy.branch_cap
    fires = fam.fires[front.origin]
    fired, still = np.flatnonzero(fires), np.flatnonzero(~fires)
    sub = front.rho if not len(still) else front.rho[fired]
    iso = fam.iso[front.origin[fired]]
    counts = fam.counts[front.origin[fired]]
    probs = _born_weights(sub, front.cells, fam.support, iso, d)
    cums = front.cum[fired, None] * probs
    valid = np.arange(probs.shape[1]) < counts[:, None]
    # a zero weight is never kept, so no child is divided by a zero trace
    kept = valid & (cums >= floor) & (probs > 0.0)
    alive = kept.any(axis=1)
    pruned = float(cums[alive[:, None] & valid & ~kept].sum())
    sums[front.row[fired]] = probs.sum(axis=1)
    # a parent whose every outcome is pruned is a leaf with its own mass and draws
    take = kept & alive[:, None]
    if front.draws is not None:
        split = np.zeros(probs.shape, dtype=np.int64)
        for f in np.flatnonzero(alive).tolist():
            w = probs[f, :counts[f]]
            split[f, :counts[f]] = gen.multinomial(front.draws[fired[f]], w / w.sum())
        if split[~kept].any():
            raise NullBranchError("sampled an outcome below prob_floor")
        take &= split > 0
    rows, ks = np.nonzero(take)
    draws = None if front.draws is None else split[rows, ks]
    if len(still) + len(rows) > cap:
        raise BranchOverflowError(f"branching exceeded the branch cap of {cap}")
    states = _collapse(sub, front.cells, fam.support, fam.keep, iso, rows, ks, d)
    block = _Block(li, fam.point, fam.labels, fam.support, fam.keep, front.row[fired[rows]], ks,
                   probs[rows, ks], cums[rows, ks], counts[rows], iso[rows, ks], states, draws)
    new = _Frontier(states, fam.keep, len(sums) + np.arange(len(ks)), block.cum,
                    front.origin[fired[rows]], draws)
    if len(still):
        # merge the branches the family skipped back in, each before the children
        # of later branches; rows, cum, origin and draws all follow ``order``
        order = np.argsort(np.concatenate([still, fired[rows]]), kind="stable")
        skipped = _Frontier(_reduce(front.rho[still], front.cells, fam.keep, d), fam.keep,
                            *(None if a is None else a[still] for a in front[2:]))
        new = _Frontier(*(b if a is None or isinstance(a, tuple) else np.concatenate([a, b])[order]
                          for a, b in zip(skipped, new)))
    return new, block, pruned


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
    imposed, propagators = imposed or {}, propagators or {}
    points = {pt for leaf in foliation.leaves for pt in leaf}
    if not set(imposed) <= points:
        raise ValueError(f"imposed families off the foliation: {list(set(imposed) - points)}")
    if not set(propagators) <= set(range(len(foliation.leaves))):
        raise ValueError(f"propagator keys are not all leaf indices: {list(propagators)}")
    if initial.dim != net.dim:
        raise DimensionMismatchError(f"the initial state has dimension {initial.dim}, "
                                     f"not the net's {net.dim}")
    # found once per run on the fewest cells each acts on: (support, [factor]) per
    # propagator and (support, labels, isometry stack) per imposed family; localizing
    # refuses a propagator or a family that is not on the net
    gates = {li: net.localize([_unitary(u, policy)], policy.tol_proj)
             for li, u in propagators.items()}
    local = {}
    for pt, fam in imposed.items():
        support, factors = net.localize([p.entries for p in fam.projections], policy.tol_proj)
        local[pt] = (support, fam.labels, linalg.range_isometries(factors))
    keep = _keep_cells(net, foliation, local, gates)
    front = _Frontier(initial.rho[None], tuple(range(net.n_cells)), np.zeros(1, dtype=np.int64),
                      np.ones(1), np.zeros(1, dtype=int),
                      None if draws is None else np.array([draws]))
    blocks: list[_Block] = []
    sums = np.full(1, np.nan)
    last = front
    pruned = 0.0
    dims: set[int] = set()
    comm_worst: dict[tuple[int, Point, Point], float] = {}

    for li, leaf in enumerate(foliation.leaves):
        if not len(front.row):
            break
        if li in gates:
            support, (gate,) = gates[li]
            pos = tuple(front.cells.index(c) for c in support)
            mat = linalg.embed_factor(gate, pos, len(front.cells), net.cell_dim)
            front = front._replace(rho=mat @ front.rho @ mat.conj().T)
        families, dims_seen = _leaf_families(net, leaf, keep[li], front.rho, front.cells,
                                             local, policy)
        dims.update(dims_seen)
        pairs = _family_commutators(families, net.cell_dim)
        if commutation == "abort":
            bad = [(int(np.argmax(n > policy.tol_commutation)), k)
                   for k, (_, _, n) in enumerate(pairs) if (n > policy.tol_commutation).any()]
            if bad:
                row, k = min(bad)
                pa, pb, norms = pairs[k]
                raise CommutationError(f"spacelike families at {pa} and {pb} fail to "
                                       f"commute (norm {norms[row]:.3e})")
        for pa, pb, norms in pairs:
            comm_worst[(li, pa, pb)] = float(norms.max())
        front = front._replace(origin=np.arange(len(front.row)))
        for fam in families:
            last = front if len(front.row) else last
            front, block, lost = _branch_point(front, fam, li, net, policy, gen, sums)
            blocks.append(block)
            pruned += lost
            sums = np.concatenate([sums, np.full(len(block.parent), np.nan)])
    comm_list = sorted((li, pa, pb, n) for (li, pa, pb), n in comm_worst.items())
    tree = HistoryTree(foliation, pruned, sorted(dims), comm_list,
                       max((n for *_, n in comm_list), default=0.0),
                       initial, net, policy, blocks, sums)
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
    read (see :class:`HistoryTree`).  An imposed family at a point outside
    the foliation, a propagator key that is not a leaf index, or an
    initial state, family or propagator not on the net's dimension raises
    before any branching.

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


@dataclass
class SampledHistory:
    """One Monte-Carlo trajectory through the event tree.

    ``final_state`` is the conditioned state on the cells ``final_cells``,
    the ones a branch still carries at the end (see :class:`BranchNode`):
    none at the end of the foliation, and those kept after its last point
    for a branch that ended early because every outcome was pruned.
    """

    events: tuple[ActualEvent, ...]
    final_state: State
    final_cells: tuple[int, ...]
    probability: float
    max_commutator: float
    spectrum_dims: list[int]


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


@dataclass
class SampleSummary:
    """Aggregate of repeated history sampling under one run seed."""

    n_samples: int
    seed: object
    counts: dict[tuple, int]
    max_commutator: float
    spectrum_dims: list[int]

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
    tuples of (tau, x, label); identical seeds give identical summaries,
    though not those of releases that drew from one spawned Generator per
    sample, or branch by branch.  ``max_commutator`` and ``spectrum_dims``
    cover the branches the draws visited.
    """
    if not is_integer_at_least(n_samples, 1) or n_samples > MAX_SAMPLES:
        raise ValueError(f"n_samples {n_samples!r} is not an integer of at least 1 and at most "
                         f"{MAX_SAMPLES}")
    tree, _ = _grow(net, foliation, initial, policy, imposed, propagators, commutation,
                    draws=n_samples, gen=np.random.default_rng(seed))
    # each row's path is its parent row's and one step; a leaf is no row's parent
    _, blocks = tree.rows()
    paths, draws, parents = [()], [n_samples], set()
    for b in blocks:
        step = [(b.point.tau, b.point.x, label) for label in b.labels]
        paths += [paths[p] + (step[k],) for p, k in zip(b.parent, b.outcome)]
        draws += b.draws
        parents.update(b.parent)
    counts = {path: count for row, (path, count) in enumerate(zip(paths, draws))
              if row not in parents}
    return SampleSummary(n_samples=n_samples, seed=seed, counts=counts,
                         max_commutator=tree.max_commutator,
                         spectrum_dims=tree.spectrum_dims)
