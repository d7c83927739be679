"""Event detection, Born-rule sampling and state collapse.

An event at a point is read off the state restricted to the localized
algebra there: the center of the state's centralizer is abelian, its
minimal projections are the candidate outcomes, and the event "happens"
when at least two outcomes carry weight at least ``prob_floor``
(:func:`event_happened`).  A branch is conditioned by
:func:`normalize_branch`, which refuses a weight below ``prob_floor``.  For a
net algebra (a full matrix factor) this reduces to spectral analysis of
the reduced density matrix: :func:`detect_event` runs the branching
engine's detector, one partial trace and :func:`linalg.spectral_isometries`,
on one state and keeps the outcomes on the support factor.  The generic
path via centralizer/center (:func:`detect_event_on`) works for any
explicit algebra and is used to cross-check the fast one.  Both return the
same form: an :class:`EventDetection` holding outcome isometries.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg, opalg
from .errors import NullBranchError
from .opalg import Operator, OperatorAlgebra, PotentialEvent, State
from .policy import DEFAULT_POLICY, NumericPolicy
from .spacetime import AlgebraNet, CausalLattice, Point, Relation, causal_relate

__all__ = [
    "EventDetection",
    "ActualEvent",
    "detect_event",
    "detect_event_on",
    "event_happened",
    "collapse",
    "normalize_branch",
    "sample_actual",
    "mixture_check",
    "mixture_defect",
    "spacelike_commutator_norm",
]


class EventDetection:
    """Outcome family the state singles out at a point.

    ``probabilities`` is sorted in decreasing order and aligns with the
    outcomes of ``event``, labelled 0..k-1 in that order; ``happened``
    records whether at least two outcomes clear ``prob_floor``.
    ``isometries`` is the ``(k, n, r)`` isometry stack of the outcomes (see
    :mod:`eventnet.linalg`): on the ``support`` cells of ``net`` for a
    detection on a net (:func:`detect_event`), and on the algebra's whole
    space, with ``support`` and ``net`` None, for one against an explicit
    algebra (:func:`detect_event_on`).  ``factor_projections``, the ambient
    ``event`` (validated under ``policy``) and ``event_algebra`` are built
    from it when first read.  ``support_state`` is the state reduced to
    the support cells, the matrix a net detection was read from (None for
    one against an explicit algebra).
    """

    def __init__(self, point: Point | None, probabilities: tuple[float, ...], happened: bool,
                 support: tuple[int, ...] | None, isometries: np.ndarray,
                 net: AlgebraNet | None = None, policy: NumericPolicy = DEFAULT_POLICY,
                 support_state: np.ndarray | None = None):
        self.point = point
        self.probabilities = probabilities
        self.happened = happened
        self.support = support
        self.isometries = isometries
        self.net = net
        self.policy = policy
        self.support_state = support_state

    @cached_property
    def factor_projections(self) -> tuple[np.ndarray, ...]:
        """The outcome projections on the support cells, slots in support order."""
        return tuple(v @ v.conj().T for v in self.isometries)

    @cached_property
    def event(self) -> PotentialEvent:
        """The outcomes as projections on the whole net (or the algebra's space)."""
        projs = self.factor_projections
        if self.net is not None:
            projs = [self.net.embed(p, self.support) for p in projs]
        return PotentialEvent(projs, policy=self.policy)

    @cached_property
    def event_algebra(self) -> OperatorAlgebra:
        """The algebra the outcomes span, with a Hilbert-Schmidt orthonormal basis."""
        return OperatorAlgebra([p.entries / np.sqrt(np.trace(p.entries).real)
                                for p in self.event.projections],
                               policy=self.policy, validate=False)


class ActualEvent:
    """One realized outcome: which projection fired, and its Born weight.

    An event built from an ambient ``projection`` holds it as an
    :class:`Operator` (any square matrix is wrapped in one).  An
    event made by branching or sampling (:meth:`from_isometry`) is held in
    factor form: ``support`` names the tensor cells it acts on, ``isometry``
    spans the outcome's range there and ``factor`` is its projection on
    them, slots in support order.  ``factor`` is built from the isometry the
    first time it is read, and the ambient ``projection`` is embedded from
    ``factor`` the first time it is read (or is ``factor`` itself when there
    is no net); both are then kept.
    """

    __slots__ = ("point", "label", "born_prob", "support", "isometry", "_factor",
                 "_projection", "_net")

    def __init__(self, point: Point | None, label: object, projection: Operator | None,
                 born_prob: float):
        self.point = point
        self.label = label
        self.born_prob = born_prob
        self.support: tuple[int, ...] | None = None
        self.isometry: np.ndarray | None = None
        self._factor: np.ndarray | None = None
        self._projection = (projection if projection is None or isinstance(projection, Operator)
                            else Operator(projection))
        self._net: AlgebraNet | None = None

    @classmethod
    def from_isometry(cls, point: Point | None, label: object, isometry: np.ndarray,
                      support: tuple[int, ...] | None, net: AlgebraNet | None,
                      born_prob: float) -> "ActualEvent":
        """An outcome given by an isometry onto its range on the ``support`` cells of ``net``.

        With ``net`` None the isometry acts on the whole space.  Zero
        columns of ``isometry`` add nothing to the projection.
        """
        event = cls(point, label, None, born_prob)
        event.support = support
        event.isometry = isometry
        event._net = net
        return event

    @property
    def factor(self) -> np.ndarray | None:
        """The outcome projection on the support cells; None for an ambient event."""
        if self._factor is None and self.isometry is not None:
            self._factor = self.isometry @ self.isometry.conj().T
        return self._factor

    @property
    def projection(self) -> Operator:
        """The outcome projection on the whole net (the whole space when there is none)."""
        if self._projection is None:
            factor = self.factor
            self._projection = Operator(factor if self._net is None
                                        else self._net.embed(factor, self.support))
        return self._projection

    def __repr__(self) -> str:
        return (f"ActualEvent(point={self.point!r}, label={self.label!r}, "
                f"born_prob={self.born_prob!r}, support={self.support!r})")


def _spectral_family(rho_f: np.ndarray, policy: NumericPolicy):
    """Cluster the spectrum of a density matrix into an outcome family.

    Returns (projections, weights) with weights in decreasing order;
    eigenvalues closer than ``gap_min`` share a projection.
    """
    weights, counts, iso = linalg.spectral_isometries(rho_f[None], policy.gap_min)
    return [v @ v.conj().T for v in iso[0, :counts[0]]], weights[0, :counts[0]].tolist()


def event_happened(weights, policy: NumericPolicy):
    """The happened test: at least two outcomes weigh ``prob_floor`` or more.

    For a 2-D array of weights the test runs along each row and returns a
    boolean mask; padding weights of -inf never count.
    """
    hits = (np.asarray(weights, dtype=float) >= policy.prob_floor).sum(axis=-1) >= 2
    return hits if hits.ndim else bool(hits)


def detect_event(net: AlgebraNet, point: Point, omega: State,
                 *, policy: NumericPolicy = DEFAULT_POLICY) -> EventDetection:
    """Detect the potential event at a net point for the given global state.

    For a full matrix factor the centralizer of the restricted state is its
    commutant within the factor, so the center of the centralizer is spanned
    by the spectral projections of the reduced density matrix; probabilities
    are the clustered eigenvalue sums.  This is the branching engine's
    detector on one state: nothing is built on the whole net until it is read.
    """
    support = net.support(point)
    rho_f = net.reduce_state(omega, support)
    weights, counts, iso = linalg.spectral_isometries(rho_f[None], policy.gap_min)
    weights = weights[0, :counts[0]]
    return EventDetection(point, tuple(weights.tolist()), event_happened(weights, policy),
                          support, iso[0, :counts[0]], net, policy, rho_f)


def detect_event_on(alg: OperatorAlgebra, omega: State,
                    *, policy: NumericPolicy = DEFAULT_POLICY,
                    point: Point | None = None) -> EventDetection:
    """Generic detection against an explicit algebra.

    Computes the center of the state's centralizer and extracts its minimal
    projections; works for any *-algebra, at the cost of a few SVDs.  The
    outcomes are kept as isometries on the algebra's whole space.
    """
    zent = opalg.center_of_centralizer(alg, omega, policy=policy)
    projs = [p.entries for p in opalg.minimal_projections(zent, policy=policy).projections]
    weights = [omega.prob(p) for p in projs]
    order = linalg.decreasing_order(weights)
    weights = [weights[i] for i in order]
    return EventDetection(point, tuple(weights), event_happened(weights, policy), None,
                          linalg.range_isometries([projs[i] for i in order]), policy=policy)


def collapse(omega: State, actual: ActualEvent,
             *, policy: NumericPolicy = DEFAULT_POLICY) -> State:
    """Condition the state on the realized outcome: p rho p / trace."""
    proj = opalg._as_matrix(actual.projection, omega.dim)
    return State(normalize_branch(proj @ omega.rho @ proj, policy), policy=policy)


def normalize_branch(out: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    """Divide an unnormalized branch ``k rho k^dagger`` by its own trace; hermitize.

    A trace below ``prob_floor`` raises :class:`NullBranchError`.
    """
    w = float(np.trace(out).real)
    if w < policy.prob_floor:
        raise NullBranchError(f"branch probability {w:.3e} below prob_floor")
    return linalg.trace_normalized(out)


def sample_actual(detection: EventDetection, rng=None,
                  *, policy: NumericPolicy = DEFAULT_POLICY) -> ActualEvent:
    """Draw one outcome of the detection by its Born weights.

    ``rng`` may be a Generator, a seed, or None for OS entropy.  Identical
    seeds give identical draws.  The outcome is given in factor form
    (:meth:`ActualEvent.from_isometry`) and no ``event`` is built.
    """
    gen = np.random.default_rng(rng)
    weights = np.clip(np.asarray(detection.probabilities, dtype=float), 0.0, None)
    total = float(weights.sum())
    if abs(total - 1.0) > policy.tol_proj:
        raise ValueError(f"outcome weights sum to {total!r}, not 1")
    idx = int(gen.choice(len(weights), p=weights / total))
    return ActualEvent.from_isometry(detection.point, idx, detection.isometries[idx],
                                     detection.support, detection.net, float(weights[idx]))


def mixture_defect(omega: State, projections: Sequence, test_ops: Sequence) -> float:
    """max over ``test_ops`` of |omega(A) - sum_j omega(p_j A p_j)|.

    The block-diagonal mixture identity: exact when the projections are
    central for the state, and violated by a generically chosen
    non-central family.
    """
    diff = linalg.mixture_residual(omega.rho,
                                   [opalg._as_matrix(p, omega.dim) for p in projections])
    worst = 0.0
    for a in test_ops:
        am = opalg._as_matrix(a, omega.dim)
        worst = max(worst, abs(complex(np.einsum("ij,ji->", diff, am))))
    return worst


def mixture_check(net: AlgebraNet, point: Point, omega: State,
                  *, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Mixture-identity residual of the event detected at ``point``, over its local algebra.

    Evaluated on the support factor: the residual matrix
    ``rho_f - sum p rho_f p`` is tested entrywise, which covers every
    matrix unit of the localized algebra at once.
    """
    detection = detect_event(net, point, omega, policy=policy)
    return float(np.max(np.abs(linalg.mixture_residual(detection.support_state,
                                                       detection.factor_projections))))


def spacelike_commutator_norm(det_a: EventDetection, det_b: EventDetection,
                              *, lattice: CausalLattice | None = None) -> float:
    """Largest operator-norm commutator between two detections' projections.

    For detections at spacelike points this must vanish; passing the
    lattice makes the spacelike precondition explicit and enforced.  Two
    detections on one net are compared in factor form, on their supports;
    any other pair is compared by its outcomes on the whole space, as two
    families on one cell of the space's dimension.
    """
    if lattice is not None and det_a.point is not None and det_b.point is not None:
        rel = causal_relate(lattice, det_a.point, det_b.point)
        if rel is not Relation.SPACELIKE:
            raise ValueError(f"points {det_a.point} and {det_b.point} are {rel.value}, "
                             "not spacelike")
    if det_a.net is not None and det_b.net is not None:
        us, vs = det_a.isometries, det_b.isometries
        supports, d = (det_a.support, det_b.support), det_a.net.cell_dim
    else:
        us, vs = (linalg.range_isometries([p.entries for p in det.event.projections])
                  for det in (det_a, det_b))
        supports, d = ((0,), (0,)), us.shape[1]
    (norm,) = linalg.max_commutator_norm(us[None], vs[None], supports, d, [0])
    return float(norm)
