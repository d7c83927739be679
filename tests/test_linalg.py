"""Tests for the numeric kernels in ``eventnet.linalg``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventnet import DimensionMismatchError, linalg
from eventnet.linalg import (embed_factor, max_commutator_norm, partial_trace,
                             random_unitary, range_isometries, spectral_isometries,
                             spectral_projections, trace_normalize_in_place,
                             trace_normalized)

import oracles

CELL = 2

# (support A, support B) on at most four cells, slots in the listed order
SUPPORTS = {
    "equal": ((0, 1), (0, 1)),
    "equal, other slot order": ((0, 1), (1, 0)),
    "nested": ((0, 1, 2), (1,)),
    "nested, larger second": ((2,), (0, 2, 3)),
    "overlapping": ((0, 1), (1, 2)),
    "overlapping, three shared": ((0, 1, 2, 3), (1, 2, 3)),
    "disjoint": ((0,), (1, 2)),
}


def _family(rng, n_cells, max_rank):
    """A complete family on ``n_cells`` cells: isometry stack and its projections."""
    dim = CELL ** n_cells
    u = random_unitary(dim, rng)
    ranks = []
    while sum(ranks) < dim:
        ranks.append(int(min(rng.integers(1, max_rank + 1), dim - sum(ranks))))
    iso = np.zeros((len(ranks), dim, max(ranks)), dtype=complex)
    start = 0
    for k, r in enumerate(ranks):
        iso[k, :, :r] = u[:, start:start + r]
        start += r
    return iso, [blk @ blk.conj().T for blk in iso]


def _ambient(projs, support, n_cells):
    return [embed_factor(p, support, n_cells, CELL) for p in projs]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(sorted(SUPPORTS)),
       max_rank=st.integers(1, 3), shared_basis=st.booleans())
def test_principal_angle_norm_matches_dense_commutators(seed, kind, max_rank, shared_basis):
    rng = np.random.default_rng(seed)
    sa, sb = SUPPORTS[kind]
    n_cells = max(sa + sb) + 1
    iso_a, projs_a = _family(rng, len(sa), max_rank)
    if shared_basis and sa == sb:
        # the same eigenbasis cut into other outcomes: the families commute
        iso_b, projs_b = _family(np.random.default_rng(seed), len(sb), max_rank)
    else:
        iso_b, projs_b = _family(rng, len(sb), max_rank)
    (got,) = max_commutator_norm(iso_a[None], iso_b[None], (sa, sb), CELL, [0])
    want = oracles.max_commutator_norm_dense(_ambient(projs_a, sa, n_cells),
                                             _ambient(projs_b, sb, n_cells))
    if kind == "disjoint":
        assert got == 0.0
    assert abs(got - want) <= 1e-12, (kind, got, want)


def test_principal_angle_norm_is_batched_over_leading_axes():
    rng = np.random.default_rng(4)
    sa, sb = SUPPORTS["overlapping"]
    fams = [(_family(rng, 2, 2), _family(rng, 2, 1)) for _ in range(3)]
    stack_a = np.stack([np.pad(a[0], ((0, 4 - len(a[0])), (0, 0), (0, 2 - a[0].shape[2])))
                        for a, _ in fams])
    stack_b = np.stack([b[0] for _, b in fams])
    got = max_commutator_norm(stack_a, stack_b, (sa, sb), CELL, np.arange(3))
    assert got.shape == (3,)
    for row, ((_, pa), (_, pb)) in zip(got, fams):
        want = oracles.max_commutator_norm_dense(_ambient(pa, sa, 3), _ambient(pb, sb, 3))
        assert abs(row - want) <= 1e-12
    # the rows asked for, in their order, and each one's norm as in the whole batch
    assert np.array_equal(max_commutator_norm(stack_a, stack_b, (sa, sb), CELL, [2, 0]),
                          got[[2, 0]])


def test_disjoint_supports_read_no_row():
    # a row past the end of the stacks raises if it is read; disjoint supports read none
    rng = np.random.default_rng(5)
    u, v = _family(rng, 1, 1)[0][None], _family(rng, 2, 2)[0][None]
    sa, sb = SUPPORTS["disjoint"]
    got = max_commutator_norm(u, v, (sa, sb), CELL, np.array([0, 7]))
    assert got.dtype == float and not got.any() and got.shape == (2,)
    with pytest.raises(IndexError):
        max_commutator_norm(u, u, (sa, sa), CELL, np.array([0, 7]))


def test_principal_angle_norm_takes_the_batch_in_blocks(monkeypatch):
    # 4096 branches of two 4-outcome families of rank 2 on overlapping supports;
    # taken whole, g = u^H v alone holds 4096 * 16 * 16 entries (16 MiB)
    rng = np.random.default_rng(11)

    def stack():
        g = rng.standard_normal((4096, 8, 8)) + 1j * rng.standard_normal((4096, 8, 8))
        return np.linalg.qr(g)[0].reshape(4096, 8, 4, 2).transpose(0, 2, 1, 3).copy()

    u, v, supports, rows = stack(), stack(), ((0, 1, 2), (1, 2, 3)), np.arange(4096)
    whole = max_commutator_norm(u, v, supports, CELL, rows)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 2**14)
    tracemalloc.start()
    try:
        blocked = max_commutator_norm(u, v, supports, CELL, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(blocked, whole)
    # tracing starts after the inputs are made, so the peak is what the call
    # adds: at most six blocks of BLOCK_ENTRIES complex entries, the gathered
    # rows among them
    assert peak <= 6 * 2**14 * 16, peak


def test_range_isometries_span_each_projection():
    rng = np.random.default_rng(9)
    _, projs = _family(rng, 3, 3)
    iso = range_isometries(projs)
    for blk, p in zip(iso, projs):
        assert np.max(np.abs(blk @ blk.conj().T - p)) <= 1e-12
    cols = np.concatenate(list(iso), axis=1)
    cols = cols[:, np.abs(cols).sum(axis=0) > 0]
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(8))) <= 1e-12


def test_commuting_product_families_give_zero_on_the_whole_space():
    # a family on the whole space is a family on one cell of the space's dimension
    p0 = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    left = range_isometries([np.kron(p0, eye), np.kron(eye - p0, eye)])
    right = range_isometries([np.kron(eye, plus), np.kron(eye, eye - plus)])
    (both,) = max_commutator_norm(left[None], right[None], ((0,), (0,)), 4, [0])
    assert both <= 1e-15
    (half,) = max_commutator_norm(range_isometries([p0, eye - p0])[None],
                                  range_isometries([plus, eye - plus])[None], ((0,), (0,)), 2,
                                  [0])
    assert half == pytest.approx(0.5, abs=1e-15)


GAP = 1e-6


def _clustering_stacks(rng):
    """Seeded stacks of rotated spectra that probe the single-linkage rule.

    Every stack mixes gapped spectra, pairs spaced at ``GAP * (1 - 1e-3)``
    (one cluster) and ``GAP * (1 + 1e-3)`` (two), chains of steps just
    under ``GAP`` that span several ``GAP``, and exact degeneracies.  The
    twelve-level stack also holds a cluster of ten, where ``np.sum`` would
    add pairwise, so exact weights pin the order of the additions.
    """
    near, far = GAP * (1 - 1e-3), GAP * (1 + 1e-3)

    def chain(start, steps, step):
        return [start + k * step for k in range(steps)]

    families = {
        4: [[0.4, 0.3, 0.2, 0.1], [0.25 + 3e-7, 0.25 - 3e-7, 0.3, 0.2],
            [0.25, 0.25, 0.25, 0.25], [0.3, 0.3 + near, 0.2, 0.2 + far],
            chain(0.2, 4, near), [0.5, 0.5, 0.1, 0.1 + near]],
        6: [list(rng.uniform(0.0, 1.0, 6)), chain(0.1, 3, near) + chain(0.4, 3, far),
            [0.1, 0.1, 0.1 + near, 0.3, 0.3 + far, 0.3 + far + near],
            [0.2] * 6],
        12: [chain(0.05, 10, 0.5 * GAP) + [0.3, 0.3 + far],
             chain(0.01, 9, near) + [0.5, 0.5, 0.5 + far],
             list(rng.uniform(0.0, 1.0, 12)),
             [1 / 3] * 10 + [0.1, 0.1 + near]],
    }
    for n, spectra in families.items():
        mats = []
        for spectrum in spectra:
            u = random_unitary(n, rng)
            mats.append((u * np.asarray(spectrum)) @ u.conj().T)
        yield np.stack(mats)


def test_spectral_isometries_match_the_single_matrix_rule():
    expected_counts = iter([[4, 3, 1, 3, 1, 2], [6, 4, 3, 1], [3, 3, 12, 2]])
    for stack in _clustering_stacks(np.random.default_rng(2)):
        weights, counts, iso = spectral_isometries(stack, GAP)
        assert counts.tolist() == next(expected_counts)
        for i, mat in enumerate(stack):
            vals, vecs = np.linalg.eigh(mat)
            clusters = oracles.cluster_indices(vals, GAP)
            sums = [oracles.sequential_sum(vals[c]) for c in clusters]
            order = sorted(range(len(sums)), key=lambda j: -sums[j])
            assert counts[i] == len(clusters)
            assert weights[i, :counts[i]].tolist() == [sums[j] for j in order]
            assert np.all(weights[i, counts[i]:] == -np.inf)
            for k, j in enumerate(order):
                blk = iso[i, k]
                want = vecs[:, clusters[j]] @ vecs[:, clusters[j]].conj().T
                assert np.max(np.abs(blk @ blk.conj().T - want)) <= 1e-15
                assert not blk[:, len(clusters[j]):].any()
            _, single, projs = spectral_projections(mat, GAP)
            assert [c.tolist() for c in single] == [c.tolist() for c in clusters]
            for proj, c in zip(projs, clusters):
                assert np.array_equal(proj, vecs[:, c] @ vecs[:, c].conj().T)


def test_batched_kernels_act_matrix_by_matrix():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
    stack = g @ np.swapaxes(g.conj(), -1, -2)
    reduced = partial_trace(stack, (2, 0), 3, 2)
    normalized = trace_normalized(stack)
    for i in range(3):
        assert np.array_equal(reduced[i], partial_trace(stack[i], (2, 0), 3, 2))
        assert np.array_equal(normalized[i], trace_normalized(stack[i]))


def test_partial_trace_takes_more_than_13_cells():
    # a zero-length stack on 14 cells needs no memory; integer labels reach 26 cells
    reduced = partial_trace(np.zeros((0, 2**14, 2**14), dtype=complex), (13, 0), 14, 2)
    assert reduced.shape == (0, 4, 4)


def test_trace_normalized_in_place_is_the_complex_division():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 16, 16)) + 1j * rng.standard_normal((4, 16, 16))
    stack = (g @ np.swapaxes(g.conj(), -1, -2)) * rng.uniform(1e-7, 10.0, (4, 1, 1))
    out = stack / np.trace(stack, axis1=-2, axis2=-1).real[..., None, None]
    want = (out + np.swapaxes(out.conj(), -1, -2)) / 2.0
    kept = stack.copy()
    assert np.array_equal(trace_normalized(stack), want)
    assert np.array_equal(stack, kept)  # the input is left alone
    assert trace_normalize_in_place(stack) is stack
    assert np.array_equal(stack, want)
    # a strided view is normalized in place too
    wide = np.zeros((4, 16, 32), dtype=complex)
    wide[:, :, ::2] = kept
    trace_normalize_in_place(wide[:, :, ::2])
    assert np.array_equal(wide[:, :, ::2], want) and not wide[:, :, 1::2].any()
    # signed zeros keep their sign: the parts are scaled as floats, as the
    # two-part formula reads; array_equal would take -0.0 for +0.0
    g = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
    stack = g @ np.swapaxes(g.conj(), -1, -2)
    stack *= (np.geomspace(1e-9, 1.0, 4) / np.trace(stack, axis1=-2, axis2=-1).real)[:, None, None]
    stack.imag[rng.random(stack.shape) < 0.3] = 0.0
    stack.imag[rng.random(stack.shape) < 0.3] = -0.0
    stack.imag[:, np.arange(8), np.arange(8)] = np.where(rng.random((4, 8)) < 0.5, -0.0, 0.0)
    stack.real[(rng.random(stack.shape) < 0.3) & ~np.eye(8, dtype=bool)] = -0.0
    scale = 1.0 / np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
    re, im = stack.real * scale, stack.imag * scale
    want = np.empty_like(stack)
    want.real = (re + np.swapaxes(re, -1, -2)) / 2.0
    want.imag = (im - np.swapaxes(im, -1, -2)) / 2.0
    assert np.signbit(want.imag).any() and np.signbit(want.real).any()
    assert trace_normalized(stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("make, message", [
    (lambda: linalg.subspace_intersection(np.eye(2), np.eye(3), 1e-10),
     "ambient dimensions differ: 2 vs 3"),
    (lambda: embed_factor(np.eye(3), (0,), 2, CELL),
     "operator of shape (3, 3) does not act on 1 cells of dim 2"),
    (lambda: linalg.spin_projections([1.0, 0.0]), "direction must be a 3-vector"),
], ids=["intersection-spaces", "embed-shape", "spin-direction"])
def test_refusals(make, message):
    with pytest.raises(DimensionMismatchError) as exc:
        make()
    assert str(exc.value) == message
