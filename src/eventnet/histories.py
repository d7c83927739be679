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
the tensor cells that later points still touch: after the outcomes at a
point are applied, every cell that no later support, imposed family or
propagator reaches is traced out.  Outcome weights are taken on the
reduced state of a family's support, and a collapse acts on the support
axes alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import BranchOverflowError, CommutationError, NullBranchError
from .events import ActualEvent, _spectral_family, event_happened, normalize_branch
from .opalg import PotentialEvent, State, _as_matrix
from .policy import DEFAULT_POLICY, NumericPolicy
from .spacetime import AlgebraNet, CausalLattice, Foliation, Point, Relation, causal_relate

__all__ = [
    "HistoryOperator",
    "BranchNode",
    "HistoryTree",
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
    the history is flagged when one exceeds ``tol_commutation``.
    """
    events = list(events)
    points = [e.point for e in events]
    if any(p is None for p in points):
        raise ValueError("history events must carry lattice points")
    if len(set(points)) != len(points):
        raise ValueError("history contains two events at the same point")
    ordered = sorted(events, key=lambda e: (e.point.tau, e.point.x))
    dim = ordered[0].projection.dim if ordered else 1
    mat = np.eye(dim, dtype=complex)
    for ev in ordered:
        mat = ev.projection.entries @ mat
    norms = []
    if lattice is not None:
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if causal_relate(lattice, a.point, b.point) is Relation.SPACELIKE:
                    norm = linalg.max_commutator_norm([a.projection.entries],
                                                      [b.projection.entries])
                    norms.append((a.point, b.point, norm))
    flagged = any(n > policy.tol_commutation for *_, n in norms)
    return HistoryOperator(events=tuple(ordered), matrix=mat,
                           spacelike_norms=norms, flagged=flagged)


def history_probability(initial: State, history: HistoryOperator) -> float:
    """Normalization of the propagated state: trace(rho H* H)."""
    h = history.matrix
    return float(np.einsum("ij,ji->", initial.rho, h.conj().T @ h).real)


def propagate_state(initial: State, history: HistoryOperator,
                    *, policy: NumericPolicy = DEFAULT_POLICY) -> State:
    """State after the history: H rho H* renormalized."""
    h = history.matrix
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
    mat = _unitary(u, policy)
    return State(mat @ state.rho @ mat.conj().T, policy=policy)


@dataclass
class BranchNode:
    """One realized outcome in the branching tree.

    ``cond_prob`` is the Born weight given the parent branch, ``cum_prob``
    the product along the path from the root.  ``event_dim`` is the
    dimension of the event algebra that fired here (the spectrum snapshot).

    ``state_after`` is the conditioned state on the tensor cells the branch
    still carries, and ``state_cells`` names those cells in slot order: the
    partial trace of the ambient branch state onto them.  Cells that no
    later point reads or acts on are dropped, so a leaf at the end of a
    cone net carries no cells and a 1x1 state.  The root holds the initial
    state on every cell.

    ``children_prob_sum`` is the total weight of the outcomes at the next
    applied family.  A node whose every outcome fell below ``prob_floor``
    keeps it but has no children: it stays a leaf holding its own mass.
    """

    leaf_index: int
    point: Point | None
    actual: ActualEvent | None
    state_after: State
    state_cells: tuple[int, ...]
    cond_prob: float
    cum_prob: float
    event_dim: int | None
    children: list["BranchNode"] = field(default_factory=list)
    children_prob_sum: float | None = None


@dataclass
class HistoryTree:
    """Full enumeration of histories along a foliation.

    ``pruned_mass`` is the mass of outcomes dropped below ``prob_floor``
    beside a sibling that was kept.  The listed leaves and the pruned mass
    together hold every unit of probability once.
    """

    root: BranchNode
    foliation: Foliation
    pruned_mass: float
    spectrum_dims: list[int]
    commutation_norms: list[tuple[int, Point, Point, float]]
    max_commutator: float

    def leaves(self) -> list[BranchNode]:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                out.append(node)
        return out

    def leaf_paths(self) -> list[tuple[tuple[ActualEvent, ...], float]]:
        """Each leaf's event sequence (causal order) and its path probability."""
        paths = []

        def walk(node, acc):
            nxt = acc + ([node.actual] if node.actual is not None else [])
            if not node.children:
                paths.append((tuple(nxt), node.cum_prob))
                return
            for child in node.children:
                walk(child, nxt)

        walk(self.root, [])
        return paths


# ---------------------------------------------------------------------------
# branching on support factors


class _Family(NamedTuple):
    """Outcomes to fork over at one point.

    ``projections`` act on the ``support`` cells, slots in support order;
    an imposed family's support is every cell.  ``keep`` names the cells a
    branch still needs once an outcome here is applied.
    """

    point: Point
    support: tuple[int, ...]
    labels: tuple
    projections: tuple[np.ndarray, ...]
    keep: tuple[int, ...]


def _keep_cells(net: AlgebraNet, foliation: Foliation,
                imposed: Mapping[Point, PotentialEvent] | None,
                propagators: Mapping[int, object] | None) -> list[list[tuple[int, ...]]]:
    """Per leaf and point, the cells that later points and propagators touch.

    Walks the foliation backwards.  A detected family reads and acts on its
    support; an imposed family or a propagator is an ambient operator, so it
    touches every cell.
    """
    every = frozenset(range(net.n_cells))
    later: frozenset[int] = frozenset()
    keep: list[list[tuple[int, ...]]] = []
    for li in reversed(range(len(foliation.leaves))):
        row = []
        for pt in reversed(foliation.leaves[li]):
            row.append(tuple(sorted(later)))
            touched = every if imposed is not None and pt in imposed else net.support(pt)
            later = later.union(touched)
        keep.append(row[::-1])
        if propagators is not None and li in propagators:
            later = every
    return keep[::-1]


def _reduce(rho: np.ndarray, cells: tuple[int, ...], keep: tuple[int, ...],
            cell_dim: int) -> np.ndarray:
    """Partial trace of a state on ``cells`` down to the subset ``keep``."""
    if keep == cells:
        return rho
    pos = tuple(cells.index(c) for c in keep)
    return linalg.partial_trace(rho, pos, len(cells), cell_dim)


def _conjugate(rho: np.ndarray, cells: tuple[int, ...], support: tuple[int, ...],
               proj: np.ndarray, cell_dim: int) -> np.ndarray:
    """P rho P for a projection P on the ``support`` cells of a state on ``cells``."""
    if support == cells:
        return proj @ rho @ proj
    n, k, d = len(cells), len(support), cell_dim
    pos = [cells.index(c) for c in support]
    cols = [n + q for q in pos]
    p = proj.reshape((d,) * (2 * k))
    t = rho.reshape((d,) * (2 * n))
    # tensordot puts the new support rows first and the new support columns
    # last; moveaxis returns them to their slots
    t = np.moveaxis(np.tensordot(p, t, axes=(list(range(k, 2 * k)), pos)), range(k), pos)
    t = np.moveaxis(np.tensordot(t, p, axes=(cols, list(range(k)))),
                    range(2 * n - k, 2 * n), cols)
    return t.reshape(d ** n, d ** n)


def _leaf_families(net: AlgebraNet, leaf: Sequence[Point], keep: Sequence[tuple[int, ...]],
                   rho: np.ndarray, cells: tuple[int, ...],
                   imposed: Mapping[Point, PotentialEvent] | None,
                   policy: NumericPolicy):
    """Outcome families to apply on one leaf, from the branch entry state.

    Returns (families, dims_seen): families hold imposed points and the
    detections that happened; dims_seen records every detection's algebra
    dimension for diagnostics.
    """
    families, dims_seen = [], []
    for pt, after in zip(leaf, keep):
        if imposed is not None and pt in imposed:
            fam = imposed[pt]
            families.append(_Family(pt, tuple(range(net.n_cells)), fam.labels,
                                    tuple(p.entries for p in fam.projections), after))
            dims_seen.append(len(fam))
            continue
        support = net.support(pt)
        projs_f, weights = _spectral_family(_reduce(rho, cells, support, net.cell_dim),
                                            policy)
        dims_seen.append(len(projs_f))
        if not event_happened(weights, policy):
            continue
        families.append(_Family(pt, support, tuple(range(len(projs_f))), tuple(projs_f),
                                after))
    return families, dims_seen


def _family_commutators(families: Sequence[_Family],
                        cell_dim: int) -> list[tuple[Point, Point, float]]:
    """Worst commutator norm between the projections of every two families.

    Each norm is taken on the union of the two supports: the ambient
    commutator is that matrix tensor the identity, with the same norm.
    Families on disjoint supports commute exactly and give 0.0.
    """
    out = []
    for i, a in enumerate(families):
        for b in families[i + 1:]:
            worst = 0.0
            if not set(a.support).isdisjoint(b.support):
                union = tuple(sorted(set(a.support) | set(b.support)))
                worst = linalg.max_commutator_norm(_on_cells(a, union, cell_dim),
                                                   _on_cells(b, union, cell_dim))
            out.append((a.point, b.point, worst))
    return out


def _on_cells(fam: _Family, cells: tuple[int, ...], cell_dim: int) -> tuple[np.ndarray, ...]:
    """The family's projections on a superset of its support."""
    if fam.support == cells:
        return fam.projections
    pos = tuple(cells.index(c) for c in fam.support)
    return tuple(linalg.embed_factor(p, pos, len(cells), cell_dim) for p in fam.projections)


def _outcome_probs(rho: np.ndarray, cells: tuple[int, ...], fam: _Family,
                   cell_dim: int) -> np.ndarray:
    """Born weights tr(rho_S P_S) of the family's outcomes, clipped at 0."""
    rho_s = _reduce(rho, cells, fam.support, cell_dim)
    probs = np.array([np.einsum("ij,ji->", rho_s, m).real for m in fam.projections])
    return np.clip(probs, 0.0, None)


def _condition(rho: np.ndarray, cells: tuple[int, ...], fam: _Family, k: int,
               cell_dim: int) -> np.ndarray:
    """Branch state after outcome ``k``, on the cells ``fam.keep``.

    The collapsed state is divided by its own trace, not by the Born
    weight, which is taken separately on the support state: for weights
    near 1e-6 the two differ enough to miss unit trace by more than
    ``tol_trace``.
    """
    return linalg.trace_normalized(
        _reduce(_conjugate(rho, cells, fam.support, fam.projections[k], cell_dim),
                cells, fam.keep, cell_dim))


class _Branch(NamedTuple):
    """A live branch: its node, its state on ``cells``, its draws and its events."""

    node: BranchNode
    rho: np.ndarray
    cells: tuple[int, ...]
    draws: int | None
    events: tuple[ActualEvent, ...]


def _grow(net: AlgebraNet, foliation: Foliation, initial: State, policy: NumericPolicy,
          imposed: Mapping[Point, PotentialEvent] | None,
          propagators: Mapping[int, object] | None, commutation: str,
          draws: int | None = None,
          gen: np.random.Generator | None = None) -> tuple[HistoryTree, list[_Branch]]:
    """The branching engine behind :func:`enumerate_tree` and the samplers.

    With ``draws=None`` every outcome that is not pruned is expanded.  With
    ``draws=n`` the root holds ``n`` draws, each parent splits its draws
    over the outcomes with one multinomial draw from ``gen``, and only the
    outcomes that receive draws are expanded.  Returns the tree and every
    branch that ended, each at a leaf.
    """
    if commutation not in ("warn", "abort"):
        raise ValueError("commutation policy must be 'warn' or 'abort'")
    cap = policy.branch_cap
    d = net.cell_dim
    keep = _keep_cells(net, foliation, imposed, propagators)
    every = tuple(range(net.n_cells))
    root = BranchNode(leaf_index=-1, point=None, actual=None, state_after=initial,
                      state_cells=every, cond_prob=1.0, cum_prob=1.0, event_dim=None)
    frontier = [_Branch(root, initial.rho, every, draws, ())]
    ended: list[_Branch] = []
    pruned = 0.0
    dims: set[int] = set()
    comm_worst: dict[tuple[int, Point, Point], float] = {}

    for li, leaf in enumerate(foliation.leaves):
        if propagators is not None and li in propagators:
            mat = _unitary(propagators[li], policy)
            frontier = [b._replace(rho=mat @ b.rho @ mat.conj().T) for b in frontier]
        next_frontier: list[_Branch] = []
        for branch in frontier:
            families, dims_seen = _leaf_families(net, leaf, keep[li], branch.rho,
                                                 branch.cells, imposed, policy)
            dims.update(dims_seen)
            for pa, pb, norm in _family_commutators(families, d):
                if commutation == "abort" and norm > policy.tol_commutation:
                    raise CommutationError(f"spacelike families at {pa} and {pb} fail to "
                                           f"commute (norm {norm:.3e})")
                key = (li, pa, pb)
                comm_worst[key] = max(comm_worst.get(key, 0.0), norm)
            current = [branch]
            for fam in families:
                dim = len(fam.projections)
                expanded = []
                for parent in current:
                    node = parent.node
                    probs = _outcome_probs(parent.rho, parent.cells, fam, d)
                    node.children_prob_sum = float(probs.sum())
                    weights = probs.tolist()
                    cums = [node.cum_prob * w for w in weights]
                    if max(cums) < policy.prob_floor:
                        ended.append(parent)  # a leaf with its own mass and draws
                        continue
                    # draws per outcome; None marks enumeration, which expands them all
                    split = ([None] * dim if parent.draws is None else
                             gen.multinomial(parent.draws, probs / probs.sum()).tolist())
                    lost = 0.0
                    for k, (w, cum, n) in enumerate(zip(weights, cums, split)):
                        if cum < policy.prob_floor:
                            if n:
                                raise NullBranchError("sampled an outcome below prob_floor")
                            lost += cum
                            continue
                        if n == 0:
                            continue
                        child_rho = _condition(parent.rho, parent.cells, fam, k, d)
                        actual = ActualEvent.from_factor(fam.point, fam.labels[k],
                                                         fam.projections[k], fam.support,
                                                         net, w)
                        child = BranchNode(leaf_index=li, point=fam.point, actual=actual,
                                           state_after=State(child_rho, policy=policy),
                                           state_cells=fam.keep,
                                           cond_prob=w, cum_prob=cum, event_dim=dim)
                        node.children.append(child)
                        expanded.append(_Branch(child, child_rho, fam.keep, n,
                                                parent.events + (actual,)))
                    pruned += lost
                current = expanded
                if len(current) + len(next_frontier) > cap:
                    raise BranchOverflowError(f"branching exceeded the branch cap of {cap}")
            next_frontier.extend(current)
        frontier = next_frontier
    ended.extend(frontier)
    comm_list = sorted((li, pa, pb, n) for (li, pa, pb), n in comm_worst.items())
    tree = HistoryTree(root=root, foliation=foliation, pruned_mass=pruned,
                       spectrum_dims=sorted(dims), commutation_norms=comm_list,
                       max_commutator=max((n for *_, n in comm_list), default=0.0))
    return tree, ended


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
    ``propagators`` optionally maps a leaf index to a unitary applied to
    every branch before that leaf is processed.  Each node's
    ``state_after`` holds only the cells later points still touch (see
    :class:`BranchNode`); imposed families and propagators act on every
    cell, so with them branches keep every cell up to the last one.

    ``commutation`` controls the response to non-commuting spacelike
    families: "warn" records them, "abort" raises.  More than
    ``policy.branch_cap`` live branches raise :class:`BranchOverflowError`.
    """
    tree, _ = _grow(net, foliation, initial, policy, imposed, propagators, commutation)
    return tree


@dataclass
class SampledHistory:
    """One Monte-Carlo trajectory through the event tree.

    ``final_state`` is the conditioned state on the cells ``final_cells``,
    the ones a branch still carries at the end (see :class:`BranchNode`).
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
    tree, (leaf,) = _grow(net, foliation, initial, policy, imposed, propagators,
                          commutation, draws=1, gen=np.random.default_rng(seed))
    return SampledHistory(events=leaf.events, final_state=State(leaf.rho, policy=policy),
                          final_cells=leaf.cells, probability=leaf.node.cum_prob,
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
    node is expanded once.  Pruning follows :func:`enumerate_tree`: a draw
    on an outcome below ``prob_floor`` raises :class:`NullBranchError`,
    and a node whose every outcome is pruned is a leaf that keeps its
    draws.  ``policy.branch_cap`` caps the live branches as in enumeration,
    but at most ``n_samples`` are live, so trees too large to enumerate can
    still be sampled.  Path keys are tuples of (tau, x, label); identical
    seeds give identical summaries, though not those of releases that drew
    from one spawned Generator per sample.  ``max_commutator`` and
    ``spectrum_dims`` cover the branches the draws visited.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    tree, ended = _grow(net, foliation, initial, policy, imposed, propagators, commutation,
                        draws=n_samples, gen=np.random.default_rng(seed))
    counts = {tuple((e.point.tau, e.point.x, e.label) for e in b.events): b.draws
              for b in ended}
    return SampleSummary(n_samples=n_samples, seed=seed, counts=counts,
                         max_commutator=tree.max_commutator,
                         spectrum_dims=tree.spectrum_dims)
