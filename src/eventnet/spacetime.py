"""Discrete causal structure and the net of localized algebras.

A lattice point carries an integer time-slice index ``tau`` and a spatial
index ``x``; a point lies in another's future when it can be reached
without exceeding the lattice signal speed, with the light-cone boundary
counting as causal.  The net assigns to each point the full matrix algebra
of the tensor cells inside its closed future cone, represented structurally
by the cell subset (dense matrices only materialize on request, since a
handful of cells already exhausts any reasonable memory budget).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Mapping, Sequence

import numpy as np

from . import linalg, opalg
from .errors import CapExceededError, DimensionMismatchError
from .opalg import State
from .policy import DEFAULT_POLICY, FrozenRecord, NumericPolicy

__all__ = [
    "Point",
    "Relation",
    "CausalLattice",
    "Foliation",
    "AlgebraNet",
    "NestingReport",
    "CausalOrderReport",
    "causal_relate",
    "future_cone",
    "foliate",
    "build_tensor_net",
    "build_full_net",
    "verify_nesting",
    "derive_causal_order",
]


class Point(namedtuple("Point", ("tau", "x"))):
    """A lattice point: the int time slice ``tau`` and the int site ``x``."""

    __slots__ = ()


class Relation(enum.Enum):
    EQUAL = "equal"
    FUTURE = "future"
    PAST = "past"
    SPACELIKE = "spacelike"


class CausalLattice(FrozenRecord):
    """A finite 1+1 lattice with a fixed signal speed.

    ``extent_tau`` time slices by ``extent_x`` spatial sites; a signal may
    move at most ``speed`` sites per slice.
    """

    _fields = ("extent_tau", "extent_x", "speed")

    def __init__(self, extent_tau: int, extent_x: int, speed: int = 1):
        if extent_tau < 1 or extent_x < 1:
            raise ValueError("lattice extents must be at least 1")
        if speed < 1:
            raise ValueError("signal speed must be at least 1")
        self.__dict__.update(extent_tau=extent_tau, extent_x=extent_x, speed=speed)

    def points(self) -> list[Point]:
        """All points in canonical (tau, x) order."""
        return [Point(t, x) for t in range(self.extent_tau) for x in range(self.extent_x)]

    def contains(self, p: Point) -> bool:
        return 0 <= p.tau < self.extent_tau and 0 <= p.x < self.extent_x


def causal_relate(lattice: CausalLattice, p: Point, q: Point) -> Relation:
    """How ``q`` stands relative to ``p``; the cone boundary is causal."""
    for pt in (p, q):
        if not lattice.contains(pt):
            raise ValueError(f"point {pt} is outside the lattice")
    dt = q.tau - p.tau
    dx = abs(q.x - p.x)
    if dt == 0:
        return Relation.EQUAL if dx == 0 else Relation.SPACELIKE
    if dx <= lattice.speed * abs(dt):
        return Relation.FUTURE if dt > 0 else Relation.PAST
    return Relation.SPACELIKE


def future_cone(lattice: CausalLattice, p: Point) -> tuple[Point, ...]:
    """The closed future cone of ``p``, in canonical order."""
    cone = [q for q in lattice.points()
            if causal_relate(lattice, p, q) in (Relation.EQUAL, Relation.FUTURE)]
    return tuple(cone)


class Foliation(FrozenRecord):
    """Leaves of lattice points, earliest first; :func:`foliate` makes constant-time slices.

    The branching engine refuses leaves that do not foliate its lattice
    (see :func:`eventnet.histories.enumerate_tree`).
    """

    _fields = ("leaves",)

    def __init__(self, leaves: tuple[tuple[Point, ...], ...]):
        self.__dict__["leaves"] = leaves

    def __len__(self) -> int:
        return len(self.leaves)

    def __iter__(self):
        return iter(self.leaves)


def foliate(lattice: CausalLattice) -> Foliation:
    leaves = tuple(tuple(Point(t, x) for x in range(lattice.extent_x))
                   for t in range(lattice.extent_tau))
    return Foliation(leaves=leaves)


class AlgebraNet:
    """Point-indexed localized algebras over a shared tensor product.

    ``cells`` is an ordered tuple of abstract tensor slots (each of
    dimension ``cell_dim``); ``supports`` maps every lattice point to the
    sorted tuple of cell indices its algebra acts on.  The algebra at a
    point is all matrices on its support cells tensor the identity on the
    rest — stored as the support set, not as a dense basis.
    """

    def __init__(self, lattice: CausalLattice, cell_dim: int,
                 cells: Sequence[Point] | None = None,
                 supports: Mapping[Point, Sequence[int]] | None = None,
                 *, policy: NumericPolicy = DEFAULT_POLICY):
        if cell_dim < 2:
            raise ValueError("cell dimension must be at least 2")
        self.lattice = lattice
        self.cell_dim = int(cell_dim)
        # a cell per point unless named, counted before the points are listed; once n
        # reaches cap's bit length, cell_dim**n >= 2**n > cap without taking the power
        n = len(cells) if cells is not None else lattice.extent_tau * lattice.extent_x
        cap = policy.dimension_cap
        if n >= cap.bit_length() or self.cell_dim ** n > cap:
            raise CapExceededError(f"ambient dimension {self.cell_dim}**{n} exceeds the cap {cap}")
        self.cells = tuple(cells) if cells is not None else tuple(lattice.points())
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("tensor cells must be distinct")
        self.dim = self.cell_dim ** n
        self._cell_index = {c: i for i, c in enumerate(self.cells)}
        if supports is None:
            supports = {p: self._cone_cells(p) for p in lattice.points()}
        self.supports: dict[Point, tuple[int, ...]] = {}
        for p, idxs in supports.items():
            idxs = tuple(sorted(int(i) for i in idxs))
            if any(i < 0 or i >= len(self.cells) for i in idxs):
                raise ValueError(f"support of {p} names a cell outside the net")
            if len(set(idxs)) != len(idxs):
                raise ValueError(f"support of {p} repeats a cell")
            self.supports[p] = idxs
        for p in lattice.points():
            if p not in self.supports:
                raise ValueError(f"no support assigned to lattice point {p}")

    def _cone_cells(self, p: Point) -> tuple[int, ...]:
        cone = future_cone(self.lattice, p)
        return tuple(self._cell_index[q] for q in cone if q in self._cell_index)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def support(self, p: Point) -> tuple[int, ...]:
        try:
            return self.supports[p]
        except KeyError:
            raise ValueError(f"point {p} is outside the net") from None

    def factor_dim(self, p: Point) -> int:
        return self.cell_dim ** len(self.support(p))

    def algebra_dim(self, p: Point) -> int:
        """Linear dimension of the localized algebra at ``p``."""
        return (self.cell_dim ** 2) ** len(self.support(p))

    def _square(self, mat: np.ndarray, dim: int, what: str) -> np.ndarray:
        """``mat``, after checking that it is ``dim`` x ``dim``."""
        if mat.shape != (dim, dim):
            raise DimensionMismatchError(f"{what} has shape {mat.shape}, not ({dim}, {dim}), "
                                         f"on a net of dimension {self.dim}")
        return mat

    def _cells(self, cells: Sequence[int]) -> tuple[int, ...]:
        """``cells`` as a tuple, after checking that they are distinct cells of the net."""
        cells = tuple(cells)
        if len(set(cells)) != len(cells) or not all(
                isinstance(c, (int, np.integer)) and 0 <= c < self.n_cells for c in cells):
            raise ValueError(f"{cells} are not distinct cells of a net of {self.n_cells} cells")
        return cells

    def embed(self, op, support: Sequence[int]) -> np.ndarray:
        """Operator on the given support cells, as a full-space matrix."""
        support = self._cells(support)
        mat = self._square(opalg._as_matrix(op), self.cell_dim ** len(support), "the factor")
        return linalg.embed_factor(mat, support, self.n_cells, self.cell_dim)

    def reduce_state(self, omega, support: Sequence[int]) -> np.ndarray:
        """Partial trace of a state down to the support cells."""
        rho = omega.rho if isinstance(omega, State) else np.asarray(omega, dtype=complex)
        return linalg.partial_trace(self._square(rho, self.dim, "the state"),
                                    self._cells(support), self.n_cells, self.cell_dim)

    def reduce_operator(self, op, support: Sequence[int]) -> tuple[np.ndarray, float]:
        """Factor part of an operator localized on ``support``, plus the residual.

        The one rule for a local operator: the factor is the partial trace
        onto the support over the dimension traced out, slots in support
        order; the residual is the Hilbert-Schmidt norm of ``op`` minus the
        factor tensor the identity, on the slots regrouped into (support,
        rest).  It vanishes iff ``op`` acts as the identity off the support.
        """
        mat = self._square(opalg._as_matrix(op), self.dim, "the operator")
        support = self._cells(support)
        d, n = self.cell_dim, self.n_cells
        order = list(support) + [c for c in range(n) if c not in support]
        ds = d ** len(support)
        rest = self.dim // ds
        factor = linalg.partial_trace(mat, support, n, d) / rest
        t = mat.reshape((d,) * (2 * n)).transpose(order + [n + c for c in order])
        t = t.reshape(ds, rest, ds, rest) - factor[:, None, :, None] * np.eye(rest)[:, None]
        return factor, linalg.hs_norm(t)

    def localize(self, ops, tol: float) -> tuple[tuple[int, ...], list[np.ndarray]]:
        """The fewest cells outside which every operator acts as the identity.

        A cell is left out when every operator's residual on all the other
        cells (:meth:`reduce_operator`, which refuses an operator not on the
        net) is at most ``tol``.  Returns that support and each operator's
        factor on it.
        """
        mats = [opalg._as_matrix(op) for op in ops]
        cells = range(self.n_cells)
        support = tuple(c for c in cells if any(
            self.reduce_operator(m, [o for o in cells if o != c])[1] > tol for m in mats))
        return support, [self.reduce_operator(m, support)[0] for m in mats]

    def membership_residual(self, op, p: Point) -> float:
        _, residual = self.reduce_operator(op, self.support(p))
        return residual

    def __repr__(self) -> str:
        return (f"AlgebraNet(cells={self.n_cells}, cell_dim={self.cell_dim}, "
                f"dim={self.dim})")


def build_tensor_net(lattice: CausalLattice, cell_dim: int = 2,
                     *, policy: NumericPolicy = DEFAULT_POLICY) -> AlgebraNet:
    """One tensor cell per lattice point; algebras live on closed future cones."""
    return AlgebraNet(lattice, cell_dim, policy=policy)


def build_full_net(lattice: CausalLattice, cell_dim: int = 2, n_cells: int = 1,
                   *, policy: NumericPolicy = DEFAULT_POLICY) -> AlgebraNet:
    """Every point carries the full algebra of a fixed set of cells.

    This is the structureless control: localized algebras never shrink
    toward the future, so no causal order can be recovered from them.
    Every point gets a support of its own, so a lattice of more points
    than ``policy.dimension_cap`` raises :class:`CapExceededError` before
    any point is listed.
    """
    points = lattice.extent_tau * lattice.extent_x
    if points > policy.dimension_cap:
        raise CapExceededError(f"full net of {lattice.extent_tau}x{lattice.extent_x} lattice "
                               f"points exceeds the cap {policy.dimension_cap}")
    cells = lattice.points()[:n_cells]
    if len(cells) < n_cells:
        raise ValueError("lattice has fewer points than requested cells")
    all_cells = tuple(range(n_cells))
    supports = {p: all_cells for p in lattice.points()}
    return AlgebraNet(lattice, cell_dim, cells=cells, supports=supports, policy=policy)


class NestingReport(namedtuple("NestingReport", (
        "p", "q", "strict_inclusion", "rel_commutant_dim", "rel_commutant_abelian", "holds"))):
    """Whether one point's algebra sits strictly inside another's, non-trivially.

    ``p`` and ``q`` are Points, ``rel_commutant_dim`` an int, the rest bools.
    """

    __slots__ = ()


def verify_nesting(net: AlgebraNet, p: Point, q: Point,
                   *, policy: NumericPolicy = DEFAULT_POLICY) -> NestingReport:
    """Check the algebraic signature of ``q`` lying in ``p``'s causal future.

    The signature: the algebra at ``q`` is strictly contained in the
    algebra at ``p``, and its relative commutant inside the latter is
    non-abelian (dimension at least 4).  Non-causal pairs simply yield a
    report with ``holds`` false — that asymmetry is the point.  Everything
    is read off the support sets.
    """
    sp, sq = set(net.support(p)), set(net.support(q))
    strict = sq < sp
    diff = sp - sq
    rel_dim = (net.cell_dim ** 2) ** len(diff)
    abelian = len(diff) == 0
    holds = strict and not abelian and rel_dim >= 4
    return NestingReport(p=p, q=q, strict_inclusion=strict,
                         rel_commutant_dim=rel_dim, rel_commutant_abelian=abelian,
                         holds=holds)


class CausalOrderReport(namedtuple("CausalOrderReport", (
        "future_pairs", "geometric_pairs", "matches_geometric", "mismatches", "reports"))):
    """Causal order reconstructed from algebra inclusions alone.

    ``future_pairs`` and ``geometric_pairs`` are lists of (Point, Point),
    ``matches_geometric`` a bool and ``mismatches`` a list of (Point, Point,
    str, str).  ``reports`` lists the :class:`NestingReport` of every
    ordered pair of distinct points, in the order of the sweep (``p``
    outer, ``q`` inner, both in canonical point order).
    """

    __slots__ = ()


def derive_causal_order(net: AlgebraNet,
                        *, policy: NumericPolicy = DEFAULT_POLICY) -> CausalOrderReport:
    """Recover the lattice order from nesting reports over all ordered pairs."""
    pts = net.lattice.points()
    derived, geometric, mismatches, reports = [], [], [], []
    for p in pts:
        for q in pts:
            if p == q:
                continue
            rep = verify_nesting(net, p, q, policy=policy)
            reports.append(rep)
            alg_says = rep.holds
            geom_says = causal_relate(net.lattice, p, q) is Relation.FUTURE
            if alg_says:
                derived.append((p, q))
            if geom_says:
                geometric.append((p, q))
            if alg_says != geom_says:
                mismatches.append((p, q,
                                   "future" if alg_says else "unrelated",
                                   "future" if geom_says else "unrelated"))
    return CausalOrderReport(future_pairs=derived, geometric_pairs=geometric,
                             matches_geometric=not mismatches, mismatches=mismatches,
                             reports=reports)
