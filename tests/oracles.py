"""Independent reference computations used to cross-check the package.

Everything here is deliberately written the slow, obvious way — explicit
index loops and brute-force product enumeration — so that agreement with
the package's SVD-based routines is evidence, not circularity.
"""

import decimal

import numpy as np


def product_span_dim(mats, max_len=4, tol=1e-9):
    """Dimension of span{1, all products of the mats and adjoints up to max_len}."""
    n = mats[0].shape[0]
    gens = [np.eye(n, dtype=complex)]
    for m in mats:
        gens.append(np.asarray(m, dtype=complex))
        gens.append(np.asarray(m, dtype=complex).conj().T)
    words = [np.eye(n, dtype=complex)]
    current = [np.eye(n, dtype=complex)]
    for _ in range(max_len):
        nxt = []
        for w in current:
            for g in gens[1:]:
                nxt.append(w @ g)
        words.extend(nxt)
        current = nxt
    stack = np.stack([w.ravel() for w in words])
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


def commutant_basis_entrywise(mats, n, tol=1e-9):
    """Basis of {X : [B, X] = 0 for all B}, built from entrywise constraints.

    The constraint matrix is assembled with explicit loops over matrix
    indices; X is flattened row-major as X[i, j] -> position i*n + j.
    """
    rows = []
    for b in mats:
        b = np.asarray(b, dtype=complex)
        for i in range(n):
            for j in range(n):
                row = np.zeros(n * n, dtype=complex)
                for k in range(n):
                    row[k * n + j] += b[i, k]      # (B X)[i, j]
                    row[i * n + k] -= b[k, j]      # (X B)[i, j]
                rows.append(row)
    system = np.stack(rows)
    u, s, vh = np.linalg.svd(system)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return vh[rank:].conj()


def span_residual(basis_flat, vec, tol_rcond=None):
    """Distance from vec to the row span of basis_flat, via least squares."""
    coeff, *_ = np.linalg.lstsq(basis_flat.T, vec, rcond=tol_rcond)
    return float(np.linalg.norm(vec - basis_flat.T @ coeff))


def random_faithful_state(n, rng, min_gap=1e-3):
    """Nondegenerate faithful density matrix with eigenvalue gaps >= min_gap."""
    raw = np.linspace(1.0, 2.0, n)
    raw = raw / raw.sum()
    if np.min(np.diff(raw)) < min_gap:
        raise ValueError("spectrum construction failed")
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return (q * raw) @ q.conj().T


def cluster_indices(values, gap):
    """Single-linkage clusters of ``values`` at ``gap``, by walking the sorted values.

    Each returned array holds original indices of one cluster; a new
    cluster starts where a value exceeds its sorted predecessor by more
    than ``gap``.  Clusters are ordered by increasing value.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    clusters = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] > gap:
            clusters.append([idx])
        else:
            clusters[-1].append(idx)
    return [np.asarray(c, dtype=int) for c in clusters]


def sequential_sum(values):
    """Sum in the listed order, one addition at a time from 0.0."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def two_level_reference(mat):
    """Eigenvalues and upper spectral projection of a 2x2 Hermitian matrix, to 50 digits.

    The lower triangle is read, as ``np.linalg.eigh`` reads it.  With
    ``m = (a + c) / 2`` and ``r = sqrt(((a - c) / 2)**2 + |l|**2)`` taken in
    ``decimal`` arithmetic from the exact values of the floats, the
    eigenvalues are ``m -+ r`` and the projection onto the upper one is
    ``(mat - (m - r)) / (2 r)``; both are rounded to floats at the end.  A
    matrix with r = 0 has the identity as its projection.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, c = (decimal.Decimal(float(mat[i, i].real)) for i in (0, 1))
        x, y = decimal.Decimal(float(mat[1, 0].real)), decimal.Decimal(float(mat[1, 0].imag))
        m, h = (a + c) / 2, (a - c) / 2
        r = (h * h + x * x + y * y).sqrt()
        vals = np.array([float(m - r), float(m + r)])
        if r == 0:
            return vals, np.eye(2, dtype=complex)
        low = complex(float(x / (2 * r)), float(y / (2 * r)))
        upper = [[float((h + r) / (2 * r)), low.conjugate()], [low, float((r - h) / (2 * r))]]
        return vals, np.array(upper)


def binomial_four_sigma(p, n):
    """Acceptance band half-width for an empirical frequency."""
    return 4.0 * np.sqrt(p * (1.0 - p) / n)


def is_self_adjoint(op, policy=None):
    """Whether an :class:`Operator` equals its adjoint to the policy's ``tol_proj``."""
    from eventnet import linalg
    from eventnet.policy import DEFAULT_POLICY

    policy = policy or DEFAULT_POLICY
    return linalg.hermiticity_defect(op.entries) <= policy.tol_proj


def tree_section_by_walk(tree):
    """The report's tree section and detection rows, from one walk of ``tree.root``'s objects.

    The walk carries each node's [tau, x, label] path down to the leaf
    rows, which come in the walk's order: children in outcome order.  A
    detection row counts the nodes of one (leaf, point) and holds the
    largest outcome count among them; rows are sorted by (leaf, point).
    """
    leaves, detections = [], {}

    def walk(node, path):
        if node.point is not None:
            path = path + [[node.point.tau, node.point.x, node.actual.label]]
            row = detections.setdefault((node.leaf_index, node.point), {
                "leaf": node.leaf_index, "point": list(node.point), "nodes": 0,
                "event_dim": node.event_dim})
            row["nodes"] += 1
            row["event_dim"] = max(row["event_dim"], node.event_dim)
        if not node.children:
            leaves.append({"path": path, "probability": node.cum_prob})
        return {"point": None if node.point is None else list(node.point),
                "label": None if node.actual is None else node.actual.label,
                "cond_prob": node.cond_prob, "cum_prob": node.cum_prob,
                "event_dim": node.event_dim, "children_prob_sum": node.children_prob_sum,
                "children": [walk(child, path) for child in node.children]}

    root = walk(tree.root, [])
    section = {"root": root, "n_leaves": len(leaves), "pruned_mass": tree.pruned_mass,
               "leaves": leaves}
    return section, [detections[key] for key in sorted(detections)]


def max_commutator_norm_dense(ps, qs):
    """Largest operator norm of ``p q - q p`` over every ``p`` in ``ps`` and ``q`` in ``qs``.

    The matrices are ambient (or share one space); each commutator is
    formed in full and its norm is the largest singular value.
    """
    worst = 0.0
    for p in ps:
        for q in qs:
            worst = max(worst, float(np.linalg.norm(p @ q - q @ p, 2)))
    return worst


def reduce_operator_by_embedding(op, support, n_cells, cell_dim):
    """Factor of ``op`` on the ``support`` cells, and its residual, by embedding.

    Entry by entry: the factor is the partial trace over the other cells
    divided by their dimension, slots in support order.  It is then
    embedded back as the factor tensor the identity on the other cells,
    in the net's slot order, and the residual is the Hilbert-Schmidt
    distance from ``op`` to that embedding.
    """
    op = np.asarray(op, dtype=complex)
    d = cell_dim
    support = tuple(support)
    rest = [c for c in range(n_cells) if c not in support]
    parts = []
    for i in range(d ** n_cells):
        digits = np.unravel_index(i, (d,) * n_cells)
        s = 0
        for c in support:
            s = s * d + int(digits[c])
        parts.append((s, tuple(int(digits[c]) for c in rest)))
    factor = np.zeros((d ** len(support),) * 2, dtype=complex)
    for i, (si, ri) in enumerate(parts):
        for j, (sj, rj) in enumerate(parts):
            if ri == rj:
                factor[si, sj] += op[i, j]
    factor /= d ** len(rest)
    embedded = np.zeros_like(op)
    for i, (si, ri) in enumerate(parts):
        for j, (sj, rj) in enumerate(parts):
            if ri == rj:
                embedded[i, j] = factor[si, sj]
    return factor, float(np.linalg.norm(op - embedded))


def localize_by_cells(ops, n_cells, cell_dim, tol):
    """Cells some operator does not act on as the identity, tested one cell at a time.

    A cell is kept when some operator's embedding residual on all the
    other cells exceeds ``tol``; returns the kept cells and each
    operator's factor on them.
    """
    support = []
    for c in range(n_cells):
        others = [o for o in range(n_cells) if o != c]
        if any(reduce_operator_by_embedding(m, others, n_cells, cell_dim)[1] > tol for m in ops):
            support.append(c)
    return tuple(support), [reduce_operator_by_embedding(m, support, n_cells, cell_dim)[0]
                            for m in ops]


class DenseNode:
    """A node of the dense reference tree; ``rho`` is the ambient branch state."""

    def __init__(self, leaf_index, point, label, projection, rho, cond_prob, cum_prob,
                 event_dim):
        self.leaf_index = leaf_index
        self.point = point
        self.label = label
        self.projection = projection
        self.rho = rho
        self.cond_prob = cond_prob
        self.cum_prob = cum_prob
        self.event_dim = event_dim
        self.children = []
        self.children_prob_sum = None


def enumerate_tree_dense(net, foliation, initial, *, policy, imposed=None,
                         propagators=None, commutation="warn"):
    """Branching tree built on the ambient space, the slow obvious way.

    Every family is embedded into the full D x D space, weights are
    tr(rho P), collapses are dense products P rho P, and every commutator
    is the norm of an ambient D x D matrix.  A node whose every outcome is
    pruned stays a leaf and adds nothing to the pruned mass.  Returns
    (root, pruned_mass, spectrum_dims, commutation_norms) with the norms as
    sorted (leaf, p, q, norm) rows, like ``HistoryTree``.
    """
    from eventnet.errors import BranchOverflowError, CommutationError
    from eventnet.events import _spectral_family

    cap = policy.branch_cap
    root = DenseNode(-1, None, None, None, initial.rho, 1.0, 1.0, None)
    frontier = [(root, initial.rho)]
    pruned = 0.0
    dims = set()
    worst = {}
    for li, leaf in enumerate(foliation.leaves):
        if propagators is not None and li in propagators:
            u = np.asarray(propagators[li], dtype=complex)
            frontier = [(node, u @ rho @ u.conj().T) for node, rho in frontier]
        next_frontier = []
        for node, rho in frontier:
            families = []
            for pt in leaf:
                if imposed is not None and pt in imposed:
                    fam = imposed[pt]
                    families.append((pt, [(lbl, p.entries) for lbl, p in fam.items()]))
                    dims.add(len(fam))
                    continue
                support = net.support(pt)
                projs, weights = _spectral_family(net.reduce_state(rho, support), policy)
                dims.add(len(projs))
                if sum(w >= policy.prob_floor for w in weights) >= 2:
                    families.append((pt, [(lbl, net.embed(p, support))
                                          for lbl, p in enumerate(projs)]))
            for i, (pa, pairs_a) in enumerate(families):
                for pb, pairs_b in families[i + 1:]:
                    norm = max_commutator_norm_dense([m for _, m in pairs_a],
                                                     [m for _, m in pairs_b])
                    if commutation == "abort" and norm > policy.tol_commutation:
                        raise CommutationError(f"{pa} and {pb} fail to commute")
                    worst[(li, pa, pb)] = max(worst.get((li, pa, pb), 0.0), norm)
            current = [(node, rho)]
            for pt, pairs in families:
                expanded = []
                for parent, prho in current:
                    probs = [max(0.0, float(np.trace(prho @ m).real)) for _, m in pairs]
                    parent.children_prob_sum = float(sum(probs))
                    lost = 0.0
                    for (label, proj), w in zip(pairs, probs):
                        cum = parent.cum_prob * w
                        if cum < policy.prob_floor:
                            lost += cum
                            continue
                        child_rho = proj @ prho @ proj / w
                        child_rho = (child_rho + child_rho.conj().T) / 2.0
                        child = DenseNode(li, pt, label, proj, child_rho, w, cum,
                                          len(pairs))
                        parent.children.append(child)
                        expanded.append((child, child_rho))
                    if parent.children:
                        pruned += lost
                current = expanded
                if len(current) + len(next_frontier) > cap:
                    raise BranchOverflowError(f"more than {cap} branches")
            next_frontier.extend(current)
        frontier = next_frontier
    norms = sorted((li, pa, pb, n) for (li, pa, pb), n in worst.items())
    return root, pruned, sorted(dims), norms


def nesting_pairs_by_sweep(net, policy):
    """The report's per-pair nesting rows, from one ``verify_nesting`` call per pair."""
    from eventnet.spacetime import verify_nesting

    pts = net.lattice.points()
    rows = []
    for p in pts:
        for q in pts:
            if p == q:
                continue
            rep = verify_nesting(net, p, q, policy=policy)
            rows.append({"p": list(p), "q": list(q),
                         "strict_inclusion": rep.strict_inclusion,
                         "rel_commutant_dim": rep.rel_commutant_dim,
                         "rel_commutant_abelian": rep.rel_commutant_abelian,
                         "holds": rep.holds})
    return rows


_DENSE_BASIS_ENTRIES = 1 << 22   # largest dense local-algebra basis, in complex entries


def dense_algebra_at(net, p, policy=None):
    """The algebra of ``net`` at ``p`` materialized as an explicit basis.

    Basis elements are the embedded matrix units of the support factor,
    normalized to Hilbert-Schmidt length 1.  Refuses when the basis would
    hold more than ``_DENSE_BASIS_ENTRIES`` complex entries.
    """
    from eventnet import linalg
    from eventnet.errors import CapExceededError
    from eventnet.opalg import OperatorAlgebra
    from eventnet.policy import DEFAULT_POLICY

    policy = policy or DEFAULT_POLICY
    support = net.support(p)
    k = net.algebra_dim(p)
    if k * net.dim * net.dim > _DENSE_BASIS_ENTRIES:
        raise CapExceededError(f"dense basis at {p} needs {k} x {net.dim}^2 entries, "
                               f"more than {_DENSE_BASIS_ENTRIES}")
    fdim = net.cell_dim ** len(support)
    norm = np.sqrt(float(net.dim // fdim))
    ops = [net.embed(unit, support) / norm for unit in linalg.matrix_units(fdim)]
    return OperatorAlgebra(ops, policy=policy, validate=False)


def cell_generators(net, p):
    """Embedded single-cell matrix units generating the algebra of ``net`` at ``p``."""
    from eventnet import linalg

    return [net.embed(unit, (cell,)) for cell in net.support(p)
            for unit in linalg.matrix_units(net.cell_dim)]


def verify_nesting_dense(net, p, q, policy=None):
    """``verify_nesting`` with every algebra materialized as a dense basis.

    Inclusion is tested basis element by basis element, and the relative
    commutant is the intersection of the commutant of ``q``'s cell
    generators with ``p``'s algebra, by generic linear algebra; only
    sensible on small nets.
    """
    from eventnet import linalg, opalg
    from eventnet.opalg import OperatorAlgebra
    from eventnet.policy import DEFAULT_POLICY
    from eventnet.spacetime import NestingReport

    policy = policy or DEFAULT_POLICY
    alg_p = dense_algebra_at(net, p, policy=policy)
    alg_q = dense_algebra_at(net, q, policy=policy)
    included = all(alg_p.membership_residual(b) <= policy.tol_closure
                   for b in alg_q.basis)
    strict = included and alg_q.dim < alg_p.dim
    comm_q = opalg.commutant_of_operators(cell_generators(net, q), net.dim, policy=policy)
    rows = linalg.subspace_intersection(comm_q.flat_basis, alg_p.flat_basis,
                                        policy.tol_closure)
    rel = OperatorAlgebra(list(rows.reshape(-1, net.dim, net.dim)),
                          policy=policy, validate=False)
    abelian = rel.is_abelian(policy=policy)
    holds = strict and not abelian and rel.dim >= 4
    return NestingReport(p=p, q=q, strict_inclusion=strict,
                         rel_commutant_dim=rel.dim, rel_commutant_abelian=abelian,
                         holds=holds)


def product_state(populations):
    """``⊗_c diag(p_c, 1 - p_c)`` over qubit cells, cell 0 in the leading slot."""
    rho = np.ones((1, 1), dtype=complex)
    for p in populations:
        rho = np.kron(rho, np.diag([p, 1.0 - p]))
    return rho


def product_spectrum_dims(net, foliation):
    """The outcome counts a product state of distinct populations meets on a cone.

    At a point of the first leaf the support's spectrum is the products of
    its cells' populations, 2^s of them on s cells; every later point sees
    a pure support, whose spectrum {1, 0, ...} is two clusters.
    """
    return sorted({2 ** len(net.support(p)) for p in foliation.leaves[0]} | {2})


def locally_turned(rho, unitaries):
    """``U rho U^H`` for ``U = ⊗_c unitaries[c]``: every support keeps its spectrum."""
    u = np.ones((1, 1), dtype=complex)
    for cell in unitaries:
        u = np.kron(u, cell)
    return u @ rho @ u.conj().T


def product_leaf_probability(populations, bits):
    """The weight of the leaf on which cell c reads ``bits[c]``: a product of populations."""
    prob = 1.0
    for p, bit in zip(populations, bits):
        prob *= p if bit == 0 else 1.0 - p
    return prob


def cat_state(n_cells, a):
    """``sqrt(a)|0...0> + sqrt(1 - a)|1...1>`` over ``n_cells`` qubit cells, as a vector."""
    vec = np.zeros(2 ** n_cells, dtype=complex)
    vec[0], vec[-1] = np.sqrt(a), np.sqrt(1.0 - a)
    return vec


def basis_bits(events, n_cells, tol=1e-12):
    """The qubit basis state a path of rank-one basis-vector events reads, cell by cell.

    Each event's range must be one basis vector of its support cells (slots
    in support order); a cell read twice must read the same bit.  Returns
    ``bits[c]`` for every cell the path reads (None for the others).
    """
    bits = [None] * n_cells
    for event in events:
        weight = np.abs(event.isometry) ** 2
        diag = weight.sum(axis=1)  # the diagonal of the outcome's projection
        index = int(np.argmax(diag))
        assert abs(diag[index] - 1.0) <= tol and abs(diag.sum() - 1.0) <= tol, diag
        for slot, cell in enumerate(event.support):
            bit = (index >> (len(event.support) - 1 - slot)) & 1
            assert bits[cell] in (None, bit), (cell, bits[cell], bit)
            bits[cell] = bit
    return bits


def ginibre_state(dim, seed=0):
    """``g g^H / tr(g g^H)`` for a complex Gaussian ``g`` from ``default_rng(seed)``: full rank."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def permuted_slots(rho, perm, cell_dim):
    """``rho`` with its tensor slots reordered: slot i of the result is slot ``perm[i]``."""
    n = len(perm)
    tensor = rho.reshape((cell_dim,) * (2 * n))
    return tensor.transpose([*perm, *(n + p for p in perm)]).reshape(rho.shape)


def mirrored_point(point, extent_x):
    """The reflection x -> X - 1 - x of a lattice point."""
    from eventnet.spacetime import Point

    return Point(point.tau, extent_x - 1 - point.x)


def mirror_slots(net):
    """The slot permutation (for :func:`permuted_slots`) that reflects a state's cells.

    Slot i of the mirrored state holds the cell at the mirror image of
    ``net.cells[i]``.
    """
    index = {cell: i for i, cell in enumerate(net.cells)}
    return [index[mirrored_point(cell, net.lattice.extent_x)] for cell in net.cells]


def mirrored_foliation(foliation, extent_x):
    """Each point reflected where it is listed, so each leaf of ``foliate`` lists x descending."""
    from eventnet.spacetime import Foliation

    return Foliation(tuple(tuple(mirrored_point(p, extent_x) for p in leaf)
                           for leaf in foliation.leaves))


def mirrored_steps(path, extent_x):
    """A path of (tau, x, label) steps with every x reflected, in its order."""
    return tuple((tau, extent_x - 1 - x, label) for tau, x, label in path)


def relabelled_net(net, order):
    """The net's lattice with its cells listed as ``net.cells[order[i]]``, cones as supports.

    A state of ``net`` is one of this net after ``permuted_slots(rho, order, cell_dim)``.
    """
    from eventnet.spacetime import AlgebraNet

    return AlgebraNet(net.lattice, net.cell_dim, cells=[net.cells[i] for i in order])
