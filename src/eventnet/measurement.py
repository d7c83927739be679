"""Physical quantities and the approximate-recording criterion.

A quantity is recorded by an event family when each of its leading
spectral projections stays close (in operator norm) to its average over
the family.  When that holds, replacing the state by its block-diagonal
mixture over the family changes the quantity's statistics only at order
(number of retained projections) x (tolerance), which is what makes the
event family a faithful record of the measurement.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import linalg
from .errors import ResolutionError
from .events import EventDetection, detect_event
from .opalg import Operator, State, _as_matrix
from .policy import DEFAULT_POLICY, NumericPolicy
from .spacetime import AlgebraNet, Point

__all__ = [
    "PhysicalQuantity",
    "SpectralDecomposition",
    "EventBasis",
    "RecordingReport",
    "validate_quantity",
    "spectral_decompose",
    "event_basis",
    "recording_check",
]


class PhysicalQuantity(namedtuple("PhysicalQuantity", ("name", "representatives"))):
    """A named self-adjoint observable with one representative per point.

    ``name`` is a str and ``representatives`` a dict of Point to Operator.
    """

    __slots__ = ()

    def at(self, point: Point) -> Operator:
        try:
            return self.representatives[point]
        except KeyError:
            raise ValueError(f"quantity {self.name!r} has no representative at {point}") from None


def validate_quantity(quantity: PhysicalQuantity, net: AlgebraNet,
                      *, policy: NumericPolicy = DEFAULT_POLICY) -> dict[Point, np.ndarray]:
    """Check self-adjointness and localization of every representative.

    Returns each point's representative as its factor on the point's
    support (:meth:`AlgebraNet.reduce_operator` of one given on the net).
    """
    factors = {}
    for point, op in quantity.representatives.items():
        mat = _as_matrix(op)
        if linalg.hermiticity_defect(mat) > policy.tol_proj:
            raise ValueError(f"{quantity.name!r} at {point} is not self-adjoint")
        factor = mat
        if mat.shape[0] == net.dim:
            factor, resid = net.reduce_operator(mat, net.support(point))
            if resid > policy.tol_closure * max(1.0, linalg.hs_norm(mat)):
                raise ValueError(
                    f"{quantity.name!r} at {point} is not localized there "
                    f"(residual {resid:.3e})")
        elif mat.shape[0] != net.factor_dim(point):
            raise ValueError(
                f"{quantity.name!r} at {point} has dimension {mat.shape[0]}, "
                f"expected {net.dim} or {net.factor_dim(point)}")
        factors[point] = factor
    return factors


class SpectralDecomposition(namedtuple("SpectralDecomposition", (
        "eigenvalues", "projections", "weights", "retained", "residual"))):
    """Spectral projections of a quantity, ordered by decreasing state weight.

    ``eigenvalues`` and ``weights`` are lists of floats and ``projections``
    a list of Operators.  ``retained`` is the smallest count (an int) whose
    weights leave less than the requested epsilon uncovered, and
    ``residual`` the float weight they leave.
    """

    __slots__ = ()


def spectral_decompose(x, omega: State, epsilon: float,
                       *, policy: NumericPolicy = DEFAULT_POLICY) -> SpectralDecomposition:
    """Cluster the spectrum of a self-adjoint operator and rank by weight."""
    mat = _as_matrix(x)
    if linalg.hermiticity_defect(mat) > policy.tol_proj:
        raise ValueError("spectral decomposition needs a self-adjoint operator")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    vals, clusters, projs = linalg.spectral_projections((mat + mat.conj().T) / 2.0,
                                                        policy.gap_min)
    eigs = [float(np.mean(vals[c])) for c in clusters]
    weights = [max(0.0, omega.prob(p)) for p in projs]
    order = linalg.decreasing_order(weights)
    eigs = [eigs[i] for i in order]
    projs = [Operator(projs[i]) for i in order]
    weights = [weights[i] for i in order]
    covered = 0.0
    retained = len(weights)
    for k, w in enumerate(weights):
        covered += w
        if 1.0 - covered < epsilon:
            retained = k + 1
            break
    return SpectralDecomposition(eigenvalues=eigs, projections=projs, weights=weights,
                                 retained=retained, residual=1.0 - covered)


class EventBasis(namedtuple("EventBasis", ("labels", "weights", "residual",
                                           "factor_projections"))):
    """The outcomes of a detection that resolve the state at precision epsilon.

    ``labels`` (a list) name the kept outcomes of the detection (its
    outcomes are labelled 0..k-1 in decreasing weight), ``weights`` is the
    list of their float weights and ``residual`` the float weight dropped.
    Their projections on the support cells are ``factor_projections``, a
    list of ndarrays; the ambient ones are the detection's
    ``event.projections`` at the same labels.
    """

    __slots__ = ()


def event_basis(detection: EventDetection, epsilon: float,
                *, policy: NumericPolicy = DEFAULT_POLICY) -> EventBasis:
    """Keep outcomes with weight at least epsilon; fail if too much is dropped.

    The kept weights must leave a residual below epsilon, otherwise no
    basis at this resolution exists and the caller should coarsen.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if epsilon < policy.eps_floor:
        raise ValueError(f"epsilon below the resolution floor {policy.eps_floor:.1e}")
    kept = [i for i, w in enumerate(detection.probabilities) if w >= epsilon]
    residual = 1.0 - sum(detection.probabilities[i] for i in kept)
    if residual >= epsilon:
        raise ResolutionError(
            f"dropped weight {residual:.3e} is not below epsilon={epsilon}")
    return EventBasis(labels=kept,
                      weights=[detection.probabilities[i] for i in kept],
                      residual=residual,
                      factor_projections=[detection.factor_projections[i] for i in kept])


class RecordingReport(namedtuple("RecordingReport", (
        "point", "quantity", "epsilon", "retained", "eigenvalues", "weights",
        "alignment_norms", "passes", "mixture_residual", "mixture_constant", "matches",
        "event_weights"))):
    """Whether an event family records a quantity at resolution epsilon.

    The quantity named ``quantity`` (a str) is checked at ``point`` (a
    Point) at the float ``epsilon``; its ``retained`` (an int) leading
    spectral projections have the float lists ``eigenvalues`` and
    ``weights``.  ``alignment_norms[k]`` is the operator-norm distance
    between the k-th retained spectral projection and its average over the
    event basis; ``passes`` (a bool) requires all of them below epsilon.
    ``mixture_residual`` (a float) is the statistics shift caused by
    block-diagonalizing the state over the retained spectral projections,
    and ``mixture_constant`` expresses it in units of (retained x epsilon).
    ``matches`` lists (k, matched event label or None, float distance), and
    ``event_weights`` the event basis's float weights.
    """

    __slots__ = ()


def recording_check(net: AlgebraNet, point: Point, omega: State,
                    quantity: PhysicalQuantity, epsilon: float,
                    *, policy: NumericPolicy = DEFAULT_POLICY) -> RecordingReport:
    """Test whether the event detected at ``point`` records ``quantity`` there.

    Works on the support factor throughout: operator norms and weights are
    unchanged by tensoring with an identity, and every matrix unit of the
    localized algebra is covered by testing the factor entrywise.
    A failed recording is reported, not raised.
    """
    quantity.at(point)  # refuses a point without a representative
    x_f = validate_quantity(quantity, net, policy=policy)[point]
    detection = detect_event(net, point, omega, policy=policy)
    if not detection.happened:
        raise ResolutionError(f"no event happened at {point}; nothing can record")
    basis = event_basis(detection, epsilon, policy=policy)
    rho_f = detection.support_state
    omega_f = State(rho_f, policy=policy)
    dec = spectral_decompose(x_f, omega_f, epsilon, policy=policy)

    norms = []
    for k in range(dec.retained):
        pk = dec.projections[k].entries
        avg = np.zeros_like(pk)
        for pj, wj in zip(basis.factor_projections, basis.weights):
            avg += (float(np.einsum("ij,ji->", rho_f, pj @ pk @ pj).real) / wj) * pj
        norms.append(linalg.operator_norm(pk - avg))
    passes = all(n < epsilon for n in norms)

    retained = [p.entries for p in dec.projections[:dec.retained]]
    mixture_residual = float(np.max(np.abs(linalg.mixture_residual(rho_f, retained))))
    denom = dec.retained * epsilon
    mixture_constant = mixture_residual / denom if denom > 0 else float("inf")

    matches: list[tuple[int, object | None, float]] = []
    for k in range(dec.retained):
        dists = [linalg.operator_norm(dec.projections[k].entries - pj)
                 for pj in basis.factor_projections]
        j = int(np.argmin(dists))
        matches.append((k, basis.labels[j] if dists[j] < policy.match_threshold else None,
                        dists[j]))

    return RecordingReport(point=point, quantity=quantity.name, epsilon=epsilon,
                           retained=dec.retained, eigenvalues=dec.eigenvalues,
                           weights=dec.weights, alignment_norms=norms, passes=passes,
                           mixture_residual=mixture_residual,
                           mixture_constant=mixture_constant, matches=matches,
                           event_weights=basis.weights)
