"""Finite-dimensional operator algebras and the states on them.

An algebra is stored as a Hilbert-Schmidt-orthonormal basis of its linear
span; *-closure and closure under products are properties the constructors
establish and the public operations preserve.  All supports are finite
dimensional, so the commutant-based notions (center, centralizer, center of
the centralizer) reduce to null spaces of explicit linear maps and are
computed by SVD with relative cutoffs from :class:`~eventnet.policy.NumericPolicy`.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EigengapError,
    NullBranchError,
    ResolutionError,
)
from .linalg import dagger, hs_norm
from .policy import DEFAULT_POLICY, NumericPolicy

__all__ = [
    "Operator",
    "OperatorAlgebra",
    "State",
    "PotentialEvent",
    "GnsSpace",
    "RestrictedState",
    "full_matrix_algebra",
    "diagonal_algebra",
    "algebra_closure",
    "commutant",
    "commutant_of_operators",
    "center",
    "centralizer",
    "center_of_centralizer",
    "traciality_defect",
    "minimal_projections",
    "gns_construct",
    "conditional_expectation",
    "conditional_expectation_gns",
    "support_restrict",
]


class Operator:
    """A square complex matrix with the handful of operations we need.

    Entries are copied once and frozen; operators are value-like and never
    mutated in place.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got shape {arr.shape}")
        arr.setflags(write=False)
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "Operator":
        return Operator(self.entries.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.entries @ other.entries)

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.entries + other.entries)

    def _check(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


def _as_matrix(op, dim: int | None = None) -> np.ndarray:
    """``op`` as a square matrix; given ``dim``, one that acts on ``dim`` dimensions."""
    arr = op.entries if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"operator dim {arr.shape[0]} vs expected dim {dim}")
    return arr


class OperatorAlgebra:
    """A *-algebra of operators, held as an orthonormal basis of its span.

    The basis is orthonormal in the Hilbert-Schmidt inner product; the span
    must contain the identity.  Closure under products and adjoints is a
    contract of the constructors (`algebra_closure`, `commutant`, ...) rather
    than something re-verified on every instantiation.
    """

    __slots__ = ("basis", "ambient_dim", "_flat")

    def __init__(self, basis: Sequence, *, policy: NumericPolicy = DEFAULT_POLICY,
                 validate: bool = True):
        mats = [_as_matrix(b) for b in basis]
        if not mats:
            raise ValueError("an operator algebra needs at least one basis element")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != n:
                raise DimensionMismatchError("basis elements live on different spaces")
        self.basis = tuple(Operator(m) for m in mats)
        self.ambient_dim = n
        self._flat = np.stack([m.ravel() for m in mats])
        if validate:
            gram = self._flat.conj() @ self._flat.T
            dev = float(np.max(np.abs(gram - np.eye(len(mats)))))
            if dev > policy.tol_closure:
                raise ValueError(f"basis is not orthonormal (deviation {dev:.3e})")
            if self.membership_residual(np.eye(n, dtype=complex)) > policy.tol_closure * np.sqrt(n):
                raise ValueError("algebra span does not contain the identity")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def flat_basis(self) -> np.ndarray:
        """Basis as rows of a (dim, ambient_dim**2) array."""
        return self._flat

    def coefficients(self, op) -> np.ndarray:
        """Expansion coefficients of the span-projection of ``op``."""
        mat = _as_matrix(op)
        if mat.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"operator dim {mat.shape[0]} vs ambient {self.ambient_dim}")
        return self._flat.conj() @ mat.ravel()

    def membership_residual(self, op) -> float:
        """Hilbert-Schmidt distance from ``op`` to the algebra's span."""
        mat = _as_matrix(op)
        coeff = self.coefficients(mat)
        return float(np.linalg.norm(mat.ravel() - coeff @ self._flat))

    def contains(self, op, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
        scale = max(1.0, hs_norm(_as_matrix(op)))
        return self.membership_residual(op) <= policy.tol_closure * scale

    def is_abelian(self, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
        k, n = self.dim, self.ambient_dim
        mats = self._flat.reshape(k, n, n)
        prods = np.einsum("iab,jbc->ijac", mats, mats)
        comms = prods - prods.transpose(1, 0, 2, 3)
        return bool(np.max(np.abs(comms)) <= policy.tol_closure)

    def equals(self, other: "OperatorAlgebra", policy: NumericPolicy = DEFAULT_POLICY) -> bool:
        """Span equality: same dimension and mutual membership of bases."""
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        worst = max(max(self.membership_residual(b) for b in other.basis),
                    max(other.membership_residual(b) for b in self.basis))
        return worst <= policy.tol_closure

    def self_adjoint_parts(self, policy: NumericPolicy = DEFAULT_POLICY) -> list[np.ndarray]:
        """Hermitian matrices spanning the algebra over the reals.

        Parts with Hilbert-Schmidt norm at most ``tol_closure`` are dropped.
        """
        parts = []
        for b in self.basis:
            m = b.entries
            parts.append((m + dagger(m)) / 2.0)
            parts.append((m - dagger(m)) / 2.0j)
        return [p for p in parts if hs_norm(p) > policy.tol_closure]

    def __repr__(self) -> str:
        return f"OperatorAlgebra(dim={self.dim}, ambient={self.ambient_dim})"


def full_matrix_algebra(n: int, *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    """All n-by-n matrices, with the matrix units as (orthonormal) basis."""
    return OperatorAlgebra(list(linalg.matrix_units(n)), policy=policy, validate=False)


def diagonal_algebra(n: int, *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    """The diagonal matrices in dimension n."""
    return OperatorAlgebra([np.diag(e) for e in np.eye(n, dtype=complex)], policy=policy,
                           validate=False)


class State:
    """A density operator: self-adjoint, positive up to slack, unit trace.

    The stored matrix is the hermitization of the input; validation rejects
    inputs whose eigenvalues dip below ``-tol_psd`` or whose trace strays
    from 1 by more than ``tol_trace``.
    """

    __slots__ = ("rho",)

    def __init__(self, rho, *, policy: NumericPolicy = DEFAULT_POLICY):
        arr = np.array(rho, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(f"state must be a square matrix, got {arr.shape}")
        skew = linalg.hermiticity_defect(arr)
        if skew > policy.tol_proj:
            raise ValueError(f"state is not self-adjoint (deviation {skew:.3e})")
        arr = (arr + arr.conj().T) / 2.0
        tr = float(np.trace(arr).real)
        if abs(tr - 1.0) > policy.tol_trace:
            raise ValueError(f"state trace {tr!r} differs from 1 beyond tolerance")
        low = float(np.linalg.eigvalsh(arr)[0])
        if low < -policy.tol_psd:
            raise ValueError(f"state has negative eigenvalue {low:.3e}")
        arr.setflags(write=False)
        self.rho = arr

    @classmethod
    def from_vector(cls, psi, *, policy: NumericPolicy = DEFAULT_POLICY) -> "State":
        v = np.asarray(psi, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()), policy=policy)

    @classmethod
    def diagonal(cls, weights, *, policy: NumericPolicy = DEFAULT_POLICY) -> "State":
        w = np.asarray(weights, dtype=float)
        return cls(np.diag(w).astype(complex), policy=policy)

    @classmethod
    def maximally_mixed(cls, dim: int, *, policy: NumericPolicy = DEFAULT_POLICY) -> "State":
        return cls(np.eye(dim, dtype=complex) / dim, policy=policy)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def value(self, op) -> complex:
        """The expectation ``trace(rho @ op)``."""
        return complex(np.einsum("ij,ji->", self.rho, _as_matrix(op, self.dim)))

    def prob(self, proj) -> float:
        """Expectation of a projection, as a real number."""
        return float(self.value(proj).real)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors of the density matrix."""
        return np.linalg.eigh(self.rho)

    def __repr__(self) -> str:
        return f"State(dim={self.dim})"


class PotentialEvent:
    """A finite family of orthogonal projections summing to the identity.

    Labels default to 0..k-1; they tag outcomes in branching trees, sample
    records and reports.
    """

    __slots__ = ("projections", "labels")

    def __init__(self, projections: Sequence, labels: Sequence | None = None,
                 *, policy: NumericPolicy = DEFAULT_POLICY):
        projs = tuple(p if isinstance(p, Operator) else Operator(p) for p in projections)
        if not projs:
            raise ValueError("a potential event needs at least one projection")
        if labels is None:
            labels = tuple(range(len(projs)))
        labels = tuple(labels)
        if len(labels) != len(projs):
            raise ValueError("labels and projections differ in length")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.projections = projs
        self.labels = labels
        self.validate(policy)

    def validate(self, policy: NumericPolicy = DEFAULT_POLICY) -> None:
        tol = policy.tol_proj
        n = self.projections[0].dim
        total = np.zeros((n, n), dtype=complex)
        for p in self.projections:
            m = p.entries
            if m.shape[0] != n:
                raise DimensionMismatchError("projections live on different spaces")
            if linalg.hermiticity_defect(m) > tol:
                raise ValueError("projection is not self-adjoint")
            if np.max(np.abs(m @ m - m)) > tol:
                raise ValueError("projection is not idempotent")
            total += m
        for i, p in enumerate(self.projections):
            for q in self.projections[i + 1:]:
                if np.max(np.abs(p.entries @ q.entries)) > tol:
                    raise ValueError("projections are not mutually orthogonal")
        if np.max(np.abs(total - np.eye(n))) > tol:
            raise ValueError("projections do not sum to the identity")

    def __len__(self) -> int:
        return len(self.projections)

    def items(self):
        return list(zip(self.labels, self.projections))

    def __repr__(self) -> str:
        return f"PotentialEvent(k={len(self)}, labels={list(self.labels)})"


# ---------------------------------------------------------------------------
# algebra constructions


def algebra_closure(generators: Iterable, ambient_dim: int | None = None,
                    *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    """Smallest *-algebra (with identity) containing the generators.

    Starts from the span of {1} + generators + adjoints and alternates
    product formation with re-orthonormalization until no product leaves
    the span.  ``tol_closure`` is the one rank cutoff: a product direction
    counts as new only if its singular value exceeds ``tol_closure`` times
    the largest singular value of the stacked candidate matrix, and the
    same cutoff drops dependent rows when the basis is re-orthonormalized.
    """
    mats = []
    for g in generators:
        m = _as_matrix(g)
        mats.append(m)
        mats.append(dagger(m))
    if ambient_dim is None:
        if not mats:
            raise ValueError("need generators or an explicit ambient dimension")
        ambient_dim = mats[0].shape[0]
    n = ambient_dim
    for m in mats:
        if m.shape[0] != n:
            raise DimensionMismatchError("generators live on different spaces")
    seed = np.stack([np.eye(n, dtype=complex).ravel()] + [m.ravel() for m in mats])
    basis = linalg.orthonormal_rows(seed, policy.tol_closure)
    while True:
        k = basis.shape[0]
        if k == n * n:
            break
        cube = basis.reshape(k, n, n)
        prods = np.einsum("iab,jbc->ijac", cube, cube).reshape(k * k, n * n)
        scale = float(np.linalg.svd(prods, compute_uv=False)[0])
        coeff = prods @ basis.conj().T
        resid = prods - coeff @ basis
        new = linalg.orthonormal_rows(resid, policy.tol_closure, scale=scale)
        if new.shape[0] == 0:
            break
        basis = linalg.orthonormal_rows(np.vstack([basis, new]), policy.tol_closure)
    ops = basis.reshape(-1, n, n)
    return OperatorAlgebra(list(ops), policy=policy, validate=False)


def commutant_of_operators(ops: Sequence, ambient_dim: int,
                           *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    """All operators commuting with every element of ``ops``.

    When ``ops`` is closed under adjoints (an algebra basis, or generators
    listed with their adjoints) the result is the commutant of the
    *-algebra they generate and is itself a *-algebra.
    """
    n = ambient_dim
    mats = [_as_matrix(op) for op in ops]
    if any(m.shape[0] != n for m in mats):
        raise DimensionMismatchError("operator does not act on the ambient space")
    if not mats:
        return full_matrix_algebra(n, policy=policy)
    eye = np.eye(n, dtype=complex)
    blocks = [np.kron(m, eye) - np.kron(eye, m.T) for m in mats]
    null = linalg.null_space_rows(np.vstack(blocks), policy.tol_closure)
    if null.shape[0] == 0:
        raise ValueError("commutant collapsed to zero; this cannot happen for unital input")
    return OperatorAlgebra(list(null.reshape(-1, n, n)), policy=policy, validate=False)


def commutant(alg: OperatorAlgebra, *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    return commutant_of_operators([b.entries for b in alg.basis], alg.ambient_dim,
                                  policy=policy)


def center(alg: OperatorAlgebra, *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    """Elements of the algebra commuting with the whole algebra."""
    comm = commutant(alg, policy=policy)
    rows = linalg.subspace_intersection(alg.flat_basis, comm.flat_basis, policy.tol_closure)
    n = alg.ambient_dim
    return OperatorAlgebra(list(rows.reshape(-1, n, n)), policy=policy, validate=False)


def _second_moments(alg: OperatorAlgebra, omega: State) -> np.ndarray:
    """Matrix T with ``T[a, b] = omega(B_a B_b)`` over the algebra basis."""
    k, n = alg.dim, alg.ambient_dim
    mats = alg.flat_basis.reshape(k, n, n)
    rb = (omega.rho[None, :, :] @ mats).reshape(k, n * n)      # rho @ B_a, flattened
    bt = mats.transpose(0, 2, 1).reshape(k, n * n)             # B_b transposed, flattened
    # trace(rho B_a B_b) = sum((rho B_a) * B_b^T)
    return rb @ bt.T


def centralizer(alg: OperatorAlgebra, omega: State,
                *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    """Elements X of the algebra with ``omega([Y, X]) = 0`` for all Y in it.

    The condition is linear in the basis coefficients of X, so the
    centralizer is the null space of the k-by-k matrix of basis commutator
    expectations.
    """
    if omega.dim != alg.ambient_dim:
        raise DimensionMismatchError("state and algebra live on different spaces")
    t = _second_moments(alg, omega)
    m = t - t.T          # m[j, i] = omega([B_j, B_i])
    coeff = linalg.null_space_rows(m, policy.tol_closure)
    n = alg.ambient_dim
    rows = coeff @ alg.flat_basis
    return OperatorAlgebra(list(rows.reshape(-1, n, n)), policy=policy, validate=False)


def center_of_centralizer(alg: OperatorAlgebra, omega: State,
                          *, policy: NumericPolicy = DEFAULT_POLICY) -> OperatorAlgebra:
    """The abelian algebra whose minimal projections are the potential event."""
    return center(centralizer(alg, omega, policy=policy), policy=policy)


def traciality_defect(alg: OperatorAlgebra, omega: State) -> float:
    """max |omega(XY) - omega(YX)| over basis pairs of ``alg``.

    On a centralizer this must vanish to working precision: the state is
    tracial there.
    """
    t = _second_moments(alg, omega)
    return float(np.max(np.abs(t - t.T)))


def minimal_projections(alg: OperatorAlgebra,
                        *, policy: NumericPolicy = DEFAULT_POLICY) -> PotentialEvent:
    """Minimal projections of an abelian algebra, as a potential event.

    Starts from the whole space as one block, held by an isometry, and
    lets each self-adjoint part of the algebra split every block so far by
    the clusters of its compression to that block (``linalg._splits`` at
    ``gap_min``, as every clustering does).  The parts commute, so the
    blocks left are their joint eigenspaces: the minimal projections.
    Raises :class:`EigengapError` when the block count differs from the
    algebra dimension (a gap below ``gap_min`` merged two of them) or a
    block's projection lies outside the algebra.
    """
    if not alg.is_abelian(policy=policy):
        raise ValueError("minimal projections require an abelian algebra")
    blocks = [np.eye(alg.ambient_dim, dtype=complex)]
    for part in alg.self_adjoint_parts(policy):
        refined = []
        for v in blocks:
            vals, vecs = np.linalg.eigh(dagger(v) @ part @ v)
            cuts = np.flatnonzero(linalg._splits(vals, policy.gap_min)) + 1
            refined += np.split(v @ vecs, cuts, axis=1)
        blocks = refined
    if len(blocks) != alg.dim:
        raise EigengapError(f"found {len(blocks)} joint eigenspaces at gap_min "
                            f"{policy.gap_min:.1e}, expected {alg.dim}")
    projs = [v @ dagger(v) for v in blocks]
    if any(alg.membership_residual(p) > policy.tol_proj for p in projs):
        raise EigengapError("a joint eigenspace's projection left the algebra span")
    return PotentialEvent(projs, policy=policy)


# ---------------------------------------------------------------------------
# states as vectors: cyclic representation


class GnsSpace(namedtuple("GnsSpace", ("algebra", "dim", "embed_map", "cyclic_vector"))):
    """The Hilbert space a state induces on an algebra.

    ``embed`` sends an element A of ``algebra`` (an :class:`OperatorAlgebra`)
    to the vector representing "A applied to the state vector"; inner
    products of embedded elements reproduce ``omega(A* B)``.  Null
    directions of the Gram matrix are quotiented away, so ``dim`` (an int)
    can be smaller than the algebra dimension.  ``embed_map`` is the
    ``(dim, algebra.dim)`` ndarray and ``cyclic_vector`` the ndarray
    ``embed(identity)``.
    """

    __slots__ = ()

    def embed(self, op) -> np.ndarray:
        return self.embed_map @ self.algebra.coefficients(op)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        return complex(np.vdot(u, v))


def gns_construct(alg: OperatorAlgebra, omega: State,
                  *, policy: NumericPolicy = DEFAULT_POLICY) -> GnsSpace:
    """Build the cyclic representation of ``omega`` on ``alg``.

    The Gram matrix ``G[i, j] = omega(B_i* B_j)`` is diagonalized;
    directions with eigenvalue at most ``tol_closure`` times the largest
    are treated as null and removed.  Raises ``ArithmeticError`` when the
    squared norm of the cyclic vector misses ``omega(1)`` by more than
    ``tol_trace`` plus the mass those null directions carried.
    """
    if omega.dim != alg.ambient_dim:
        raise DimensionMismatchError("state and algebra live on different spaces")
    k, n = alg.dim, alg.ambient_dim
    mats = alg.flat_basis.reshape(k, n, n)
    # G[i, j] = trace(rho B_i* B_j) = <B_i, B_j rho> in Hilbert-Schmidt form
    bj_rho = (mats @ omega.rho[None, :, :]).reshape(k, n * n)
    gram = alg.flat_basis.conj() @ bj_rho.T
    gram = (gram + dagger(gram)) / 2.0
    lam, u = np.linalg.eigh(gram)
    top = float(lam[-1]) if lam.size else 0.0
    keep = lam > policy.tol_closure * max(top, 0.0)
    embed_map = np.sqrt(lam[keep])[:, None] * dagger(u[:, keep])
    one = alg.coefficients(np.eye(n, dtype=complex))
    space = GnsSpace(algebra=alg, dim=int(keep.sum()), embed_map=embed_map,
                     cyclic_vector=embed_map @ one)
    norm_sq = float(np.vdot(space.cyclic_vector, space.cyclic_vector).real)
    dropped = float(np.abs(lam[~keep]) @ np.abs(dagger(u[:, ~keep]) @ one) ** 2)
    if abs(norm_sq - omega.prob(np.eye(n))) > policy.tol_trace + dropped:
        raise ArithmeticError(f"cyclic vector has squared norm {norm_sq!r}, not omega(1)")
    return space


# ---------------------------------------------------------------------------
# conditioning


def conditional_expectation(alg: OperatorAlgebra, omega: State, event: PotentialEvent,
                            op, *, policy: NumericPolicy = DEFAULT_POLICY) -> Operator:
    """Average ``op`` over the event: sum_j omega(p_j op p_j)/omega(p_j) p_j.

    Every outcome weight must clear ``eps_floor``; conditioning on an
    outcome the state cannot see is refused rather than divided by.
    """
    mat = _as_matrix(op)
    out = np.zeros_like(mat)
    for p in event.projections:
        w = omega.prob(p)
        if w < policy.eps_floor:
            raise ResolutionError(
                f"outcome weight {w:.3e} below the conditioning floor {policy.eps_floor:.1e}")
        pm = p.entries
        out += (omega.value(pm @ mat @ pm) / w) * pm
    return Operator(out)


def conditional_expectation_gns(alg: OperatorAlgebra, omega: State, event: PotentialEvent,
                                op, *, policy: NumericPolicy = DEFAULT_POLICY) -> Operator:
    """Same map, built as a vector-space projection in the cyclic representation.

    Embeds the event projections and the operator, projects the operator's
    vector onto the span of the projections' vectors, and reads the
    coefficients back.  Agreement with the closed form is a correctness
    check on both.
    """
    for p in event.projections:
        if omega.prob(p) < policy.eps_floor:
            raise ResolutionError("outcome weight below the conditioning floor")
    space = gns_construct(alg, omega, policy=policy)
    basis_vecs = np.stack([space.embed(p) for p in event.projections], axis=1)
    target = space.embed(op)
    z, *_ = np.linalg.lstsq(basis_vecs, target, rcond=None)
    n = alg.ambient_dim
    out = np.zeros((n, n), dtype=complex)
    for zj, p in zip(z, event.projections):
        out += zj * p.entries
    return Operator(out)


class RestrictedState(namedtuple("RestrictedState", ("state", "support", "clamped_mass"))):
    """A :class:`State` on its support, the support projection as an
    :class:`Operator`, and the float mass clamped away."""

    __slots__ = ()


def support_restrict(omega: State, *, policy: NumericPolicy = DEFAULT_POLICY) -> RestrictedState:
    """Clamp numerically-zero eigenvalues and renormalize onto the support.

    Eigenvalues below ``tol_psd`` are set to zero; if the surviving trace
    falls below ``prob_floor``, the floor a branch weight must clear, the
    state has no usable support and ``NullBranchError`` is raised.
    """
    vals, vecs = omega.eigensystem()
    clamped = np.where(vals < policy.tol_psd, 0.0, vals)
    mass = float(np.sum(vals) - np.sum(clamped))
    tr = float(np.sum(clamped))
    if tr < policy.prob_floor:
        raise NullBranchError(f"state trace {tr:.3e} below floor after clamping")
    keep = clamped > 0.0
    rho = (vecs * (clamped / tr)) @ dagger(vecs)
    support = vecs[:, keep] @ dagger(vecs[:, keep])
    return RestrictedState(state=State(rho, policy=policy),
                           support=Operator(support),
                           clamped_mass=mass)
