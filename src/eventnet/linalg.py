"""Low-level linear algebra shared by the operator-algebra layers.

Conventions: operators are square complex ndarrays; flattening is always
row-major (``A.ravel()``), so the Hilbert-Schmidt inner product of two
operators is ``(A.conj().ravel() @ B.ravel())`` and the commutator map
``X -> [B, X]`` acts on flattened operators as ``kron(B, I) - kron(I, B.T)``.
On a product of n cells, cell c is row axis c and column axis ``n + c`` of
an operator's tensor, in :func:`partial_trace` as in :func:`embed_factor`.

The numeric rules that need no tolerance policy live here, each in one
function that every layer calls: spectral clustering
(:func:`spectral_projections`, and :func:`spectral_isometries` for a stack
of matrices), outcome order (:func:`decreasing_order`), commutator norms
of two batches of families on their tensor supports, read at the branch
rows asked for (:func:`max_commutator_norm`), the block-diagonal mixture
(:func:`mixture_residual`), normalization by a branch's own trace
(:func:`trace_normalized`) and the hermiticity defect
(:func:`hermiticity_defect`).  A batched product whose temporaries would
grow with the batch is taken in blocks of at most :data:`BLOCK_ENTRIES`
entries (:func:`block_size`).

An outcome family can be held by its isometries: outcome k is an
``(n, r)`` block of orthonormal columns spanning the range of its
projection.  A family of several outcomes is a stack ``(k, n, r)``, and
a batch of families, one per branch, a stack ``(m, k, n, r)`` with one
leading batch axis; zero columns pad the smaller ranks, and an all-zero
block is an outcome of rank 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "dagger",
    "hs_norm",
    "operator_norm",
    "hermiticity_defect",
    "max_commutator_norm",
    "range_isometries",
    "mixture_residual",
    "trace_normalized",
    "trace_normalize_in_place",
    "BLOCK_ENTRIES",
    "block_size",
    "orthonormal_rows",
    "null_space_rows",
    "subspace_intersection",
    "matrix_units",
    "spectral_projections",
    "spectral_isometries",
    "decreasing_order",
    "embed_factor",
    "partial_trace",
    "spin_projections",
    "random_unitary",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# the most entries one block of a batched product holds in each temporary
BLOCK_ENTRIES = 2**20


def block_size(per_item: int) -> int:
    """How many items of ``per_item`` temporary entries each one block takes: at least 1."""
    return max(1, BLOCK_ENTRIES // per_item)


def dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().T


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a.ravel()))


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entry of ``|a - a^dagger|``; inf for a NaN or infinite entry, so ``> tol`` fails."""
    if not np.isfinite(a).all():
        return np.inf
    return float(np.max(np.abs(a - a.conj().T)))


def max_commutator_norm(us: np.ndarray, vs: np.ndarray, supports, cell_dim: int,
                        rows) -> np.ndarray:
    """Largest ``||[p, q]||`` over the outcomes of two complete families, at each of ``rows``.

    ``us`` and ``vs`` are two batches ``(m, k, n, r)`` of isometry stacks,
    one family per branch, whose projections each sum to the identity on
    the tensor cells ``supports = (A, B)``: each cell of dimension
    ``cell_dim``, slots in the listed order.  The result holds, for each
    branch of the index array ``rows``, the norm of the commutator on the
    whole product.  A family on the whole space is a family on one cell of
    the space's dimension.  Disjoint supports give exactly 0.0, and no row
    is read.

    The rule is that of principal angles (Halmos 1969; Bjorck and Golub
    1973): with u and v orthonormal bases of the ranges of p and q,
    ``||[p, q]||`` is the largest ``c * sqrt(1 - c**2)`` over the singular
    values c of ``u^H v``.  It is evaluated as ``||p q (1 - p)||``, so that
    nearly commuting pairs keep their absolute accuracy: written in the
    basis of the first family's outcomes, q's block row of outcome i
    without its diagonal block is ``p_i q (1 - p_i)``, and nothing is
    subtracted from 1.  In factor form ``u^H v`` is the contraction over
    the shared cells C of u on (A - B, C) with v on (C, B - A).  The rows
    are gathered from the two stacks in blocks (:func:`block_size`) whose
    u, v and ``u^H v`` each fit :data:`BLOCK_ENTRIES`, so no whole stack is
    copied; a branch's products do not depend on its block, so neither
    does its norm.
    """
    a, b = (tuple(s) for s in supports)
    shared = [c for c in a if c in b]
    if not shared or us.shape[1] == 0 or vs.shape[1] == 0:
        return np.zeros(len(rows))
    d = cell_dim
    only_a = [c for c in a if c not in b]
    only_b = [c for c in b if c not in a]
    dx, dc, dy = d ** len(only_a), d ** len(shared), d ** len(only_b)
    (ka, ra), (kb, rb) = (us.shape[1], us.shape[3]), (vs.shape[1], vs.shape[3])
    if kb * (ka * ra * dy) ** 2 > ka * (kb * rb * dx) ** 2:
        # the norm is symmetric; write the smaller family basis in full
        return max_commutator_norm(vs, us, (b, a), d, rows)
    # per branch: u and v as read, then g = u^H v; take the rows in blocks
    x, y = ka * ra * dx, kb * dy * rb
    step = block_size(max(x * dc, dc * y, x * y))
    worst = np.empty(len(rows))
    for s in range(0, len(rows), step):
        at = rows[s:s + step]
        worst[s:s + step] = _commutator_block(us[at], vs[at], a, b, only_a, shared, only_b, d)
    return worst


def _commutator_block(us, vs, a, b, only_a, shared, only_b, d) -> np.ndarray:
    """:func:`max_commutator_norm` of a gathered block ``(m, k, n, r)`` of branches: ``(m,)``."""
    m, (ka, ra), (kb, rb) = len(us), (us.shape[1], us.shape[3]), (vs.shape[1], vs.shape[3])
    dx, dc, dy = d ** len(only_a), d ** len(shared), d ** len(only_b)

    def slots(iso, support, first, second):
        # (m, k, n, r) -> (m, k, first, second, r), slots regrouped
        t = iso.reshape(iso.shape[:2] + (d,) * len(support) + (iso.shape[-1],))
        t = t.transpose([0, 1] + [2 + support.index(c) for c in first + second] + [t.ndim - 1])
        return t.reshape(iso.shape[:2] + (d ** len(first), d ** len(second), iso.shape[-1]))

    # u is (m, ka, x, c, ra) and v is (m, kb, c, y, rb)
    left = slots(us, a, only_a, shared).conj().transpose(0, 1, 4, 2, 3)
    left = left.reshape(m, ka * ra * dx, dc)
    right = slots(vs, b, shared, only_b).transpose(0, 2, 1, 3, 4).reshape(m, dc, kb * dy * rb)
    # g[:, j] stacks u_i^H v_j over the first family's outcomes i, rows
    # (i, ra, y) and columns (x, rb)
    g = (left @ right).reshape(m, ka, ra, dx, kb, dy, rb).transpose(0, 4, 1, 2, 5, 3, 6)
    e = ra * dy
    g = g.reshape(m, kb, ka * e, dx * rb)
    worst = np.zeros(m)
    diag = np.arange(ka)
    # q is (ka e)^2 per outcome j and branch; take the j in blocks
    step = block_size(m * (ka * e) ** 2)
    for j in range(0, kb, step):
        gj = g[:, j:j + step]
        q = (gj @ np.swapaxes(gj.conj(), -1, -2)).reshape(gj.shape[:-2] + (ka, e, ka, e))
        q[..., diag, :, diag, :] = 0.0
        rows = q.reshape(gj.shape[:-2] + (ka, e, ka * e))
        top = np.linalg.eigvalsh(rows @ np.swapaxes(rows.conj(), -1, -2))[..., -1]
        worst = np.maximum(worst, np.sqrt(np.clip(top, 0.0, None)).max(axis=(-2, -1)))
    return worst


def range_isometries(projections) -> np.ndarray:
    """Isometry stack ``(k, n, r)`` of a complete family of orthogonal projections.

    ``sum_k (k + 1) p_k`` has eigenvalue k + 1 on the range of ``p_k``, so
    one ``eigh`` gives every block, and the blocks of different outcomes
    are orthogonal to rounding and together span the space.
    """
    mats = [np.asarray(p, dtype=complex) for p in projections]
    h = sum((k + 1.0) * p for k, p in enumerate(mats))
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    owner = np.clip(np.rint(vals).astype(int) - 1, 0, len(mats) - 1)
    ranks = np.bincount(owner, minlength=len(mats))
    out = np.zeros((len(mats), vecs.shape[0], max(int(ranks.max()), 1)), dtype=complex)
    for k in range(len(mats)):
        out[k, :, :ranks[k]] = vecs[:, owner == k]
    return out


def mixture_residual(rho: np.ndarray, projections) -> np.ndarray:
    """``rho - sum_j p_j rho p_j``: what block-diagonalizing ``rho`` removes."""
    mix = np.zeros_like(rho)
    for p in projections:
        mix += p @ rho @ p
    return rho - mix


def trace_normalized(mat: np.ndarray) -> np.ndarray:
    """``mat`` divided by its own trace, then hermitized; a stack matrix by matrix.

    The work is :func:`trace_normalize_in_place` on a complex copy of ``mat``,
    whose one temporary is the copy's conjugate transpose.
    """
    return trace_normalize_in_place(np.array(mat, dtype=complex))


def trace_normalize_in_place(out: np.ndarray) -> np.ndarray:
    """:func:`trace_normalized` on ``out`` itself, a complex array, which is returned.

    The parts are scaled as floats by ``0.5 / trace``, half of dividing by the
    real trace, with no complex product to flip a zero's sign; one add of the
    conjugate transpose then forms ``re + re^T`` and ``im - im^T``, and that
    conjugate transpose, the size of ``out``, is the one temporary.
    """
    scale = (0.5 / out.trace(axis1=-2, axis2=-1).real)[..., None, None]
    re, im = out.real, out.imag
    re *= scale
    im *= scale
    out += out.conj().swapaxes(-1, -2)
    return out


def _as_matrix(rows) -> np.ndarray:
    mat = np.asarray(rows, dtype=complex)
    if mat.ndim == 1:
        mat = mat[None, :]
    return mat


def orthonormal_rows(rows, tol: float, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis of the row space of ``rows``.

    Directions with singular value at or below ``tol * max(1, scale)`` are
    discarded; ``scale`` defaults to the largest singular value.  Passing the
    floor of 1 keeps the cutoff meaningful when the whole input is noise.
    """
    mat = _as_matrix(rows)
    if mat.size == 0:
        return np.zeros((0, mat.shape[-1]), dtype=complex)
    _, svals, vh = np.linalg.svd(mat, full_matrices=False)
    if scale is None:
        scale = float(svals[0])
    cutoff = tol * max(1.0, scale)
    keep = svals > cutoff
    return vh[keep]


def null_space_rows(mat, tol: float) -> np.ndarray:
    """Orthonormal basis (as rows) of ``{v : mat @ v = 0}``.

    The cutoff is ``tol * max(1, largest singular value)`` so that a map
    which is itself numerically zero keeps its full domain as null space.
    """
    mat = _as_matrix(mat)
    n_cols = mat.shape[1]
    if mat.shape[0] == 0:
        return np.eye(n_cols, dtype=complex)
    # the full V* is only needed when rows < cols; otherwise the thin SVD
    # already carries every right singular vector and skips a huge U
    full = mat.shape[0] < n_cols
    _, svals, vh = np.linalg.svd(mat, full_matrices=full)
    cutoff = tol * max(1.0, float(svals[0]) if svals.size else 0.0)
    rank = int(np.sum(svals > cutoff))
    return vh[rank:].conj()


def subspace_intersection(a_rows: np.ndarray, b_rows: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning ``span(a_rows) & span(b_rows)``.

    Both inputs must have orthonormal rows.  A combination ``c @ a_rows``
    lies in the intersection iff its residual after projecting onto
    ``span(b_rows)`` vanishes, so the coefficient vectors are the null
    space of the residual matrix.
    """
    a = _as_matrix(a_rows)
    b = _as_matrix(b_rows)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, a.shape[-1] if a.size else b.shape[-1]), dtype=complex)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    resid = a - (a @ dagger(b)) @ b
    coeffs = null_space_rows(resid.T, tol)  # rows c with c @ resid = 0
    return coeffs @ a


def _splits(vals: np.ndarray, gap: float) -> np.ndarray:
    """The single-linkage rule: a new cluster starts after each ascending gap above ``gap``."""
    return vals[..., 1:] - vals[..., :-1] > gap


def spectral_projections(mat: np.ndarray,
                         gap: float) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Ascending eigenvalues, their single-linkage clusters at ``gap``, one projection each.

    The clusters are index arrays in ascending order of eigenvalue.
    """
    vals, vecs = np.linalg.eigh(mat)
    clusters = np.split(np.arange(len(vals)), np.flatnonzero(_splits(vals, gap)) + 1)
    return vals, clusters, [vecs[:, c] @ vecs[:, c].conj().T for c in clusters]


def spectral_isometries(mats: np.ndarray,
                        gap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clustering of :func:`spectral_projections` for a stack ``(b, n, n)``.

    Returns ``(weights, counts, iso)``: matrix i has ``counts[i]``
    outcomes in decreasing weight (:func:`decreasing_order`),
    ``weights[i, k]`` is the eigenvalue sum of outcome k, added in
    ascending order, and ``iso[i, k]`` its ``(n, r)`` block of
    eigenvectors, also in ascending order.  Padding outcomes weigh -inf.
    """
    vals, vecs = np.linalg.eigh(mats)
    count, n = vals.shape
    rows = np.arange(count)[:, None]
    starts = np.ones((count, n), dtype=bool)
    starts[:, 1:] = _splits(vals, gap)
    label = starts.cumsum(axis=1) - 1                   # ascending cluster of each eigenvalue
    counts = label[:, -1] + 1
    kmax = int(counts.max())
    sums = np.bincount((label + kmax * rows).ravel(), vals.ravel(), count * kmax)
    sums = sums.reshape(count, kmax)
    sums[np.arange(kmax) >= counts[:, None]] = -np.inf
    order = decreasing_order(sums)
    index = np.arange(n)
    column = index - np.maximum.accumulate(np.where(starts, index, 0), axis=1)
    rank = int(column.max()) + 1
    # rows outermost, as in vecs: the collapse's products on these blocks
    # round differently on other layouts, and reports are kept bit for bit
    iso = np.zeros((count, n, kmax * rank), dtype=complex)
    place = order.argsort(axis=1)[rows, label] * rank + column
    iso[rows[:, :, None], index[:, None], place[:, None, :]] = vecs
    return sums[rows, order], counts, iso.reshape(count, n, kmax, rank).transpose(0, 2, 1, 3)


def matrix_units(n: int) -> np.ndarray:
    """The n*n matrix units ``E_ab`` (a 1 in row a, column b), ordered by (a, b)."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n)


def decreasing_order(weights) -> np.ndarray:
    """Indices that sort ``weights`` from largest to smallest; ties keep their order."""
    return np.argsort(-np.asarray(weights), kind="stable")


def embed_factor(op: np.ndarray, support: tuple[int, ...], n_cells: int, cell_dim: int) -> np.ndarray:
    """Embed ``op`` acting on the tensor cells ``support`` into the full product.

    Cells are ordered; ``op`` must act on ``cell_dim ** len(support)``
    dimensions with its tensor slots in the order given by ``support``; up to 26 cells.
    """
    support = tuple(support)
    d = cell_dim
    if op.shape != (d ** len(support),) * 2:
        raise DimensionMismatchError(
            f"operator of shape {op.shape} does not act on {len(support)} cells of dim {d}")
    rest = [c for c in range(n_cells) if c not in support]
    eye = np.eye(d ** len(rest), dtype=complex).reshape((d,) * (2 * len(rest)))
    full = np.einsum(op.reshape((d,) * (2 * len(support))),
                     [*support, *(n_cells + c for c in support)],
                     eye, [*rest, *(n_cells + c for c in rest)], range(2 * n_cells))
    return full.reshape(d ** n_cells, d ** n_cells)


def partial_trace(mat: np.ndarray, keep: tuple[int, ...], n_cells: int, cell_dim: int) -> np.ndarray:
    """Trace out every tensor cell not listed in ``keep`` (result slots follow ``keep``).

    ``mat`` may be a stack ``(..., D, D)`` of up to 26 cells; each matrix is traced alike.
    """
    keep = tuple(keep)
    d = cell_dim
    lead = mat.shape[:-2]
    tensor = mat.reshape(lead + (d,) * (2 * n_cells))
    cols = [n_cells + c if c in keep else c for c in range(n_cells)]
    reduced = np.einsum(tensor, [..., *range(n_cells), *cols],
                        [..., *keep, *(n_cells + c for c in keep)])
    return np.ascontiguousarray(reduced.reshape(lead + (d ** len(keep),) * 2))


def spin_projections(direction) -> tuple[np.ndarray, np.ndarray]:
    """Projections onto the +1 and -1 eigenspaces of ``n . sigma`` for a unit vector n."""
    n = np.asarray(direction, dtype=float)
    if n.shape != (3,):
        raise DimensionMismatchError("direction must be a 3-vector")
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    n = n / norm
    sigma = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    eye = np.eye(2, dtype=complex)
    return 0.5 * (eye + sigma), 0.5 * (eye - sigma)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase convention so the factorization is unique
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q
