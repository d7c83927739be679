"""Shipped demonstration scenarios with closed-form expectations.

Each scenario bundles a net, an initial state, optionally a set of
externally designated ("imposed") outcome families, named quantities,
a list of expected values with the arithmetic identity they come from,
and its own evaluator that re-derives those values through the event
machinery.  ``evaluate_expected`` compares the two, so the closed forms
act as end-to-end oracles.

The evaluators read the outcome a run already grew: its enumerated
:class:`HistoryTree`, or the :class:`SampleSummary` of its draws, whose
leaf frequencies are held to the closed forms within four binomial
sigmas.  Only a call without an outcome enumerates the scenario's tree,
once, and only for a scenario whose evaluator reads one.
"""

from __future__ import annotations

import math
import sys
from types import MappingProxyType
from collections import namedtuple
from typing import Callable, Mapping, Sequence

import numpy as np

from . import linalg
from .errors import ConfigError
from .events import mixture_defect, normalize_branch
from .histories import HistoryTree, SampleSummary, enumerate_tree
from .measurement import PhysicalQuantity, recording_check
from .opalg import Operator, PotentialEvent, State
from .policy import DEFAULT_POLICY, NumericPolicy, is_real_number
from .spacetime import (AlgebraNet, CausalLattice, Foliation, Point,
                        build_full_net, build_tensor_net, derive_causal_order,
                        foliate)

__all__ = [
    "Expected",
    "Scenario",
    "EvaluatedExpectation",
    "NonlocalityReport",
    "epr_scenario",
    "epr_overlap_scenario",
    "massive_control",
    "two_leaf_chain",
    "recording_demo",
    "order_independence_check",
    "nonlocality_demo",
    "evaluate_expected",
    "SCENARIO_BUILDERS",
    "build_scenario",
]


class Expected(namedtuple("Expected", ("name", "value", "tol", "derivation", "kind"),
                          defaults=("exact",))):
    """A closed-form value, its tolerance and how a sampled run checks it.

    ``name`` and ``derivation`` are strs, ``value`` and ``tol`` floats.
    ``kind`` is ``"exact"`` for a value every run evaluates the same way,
    ``"probability"`` for a leaf or joint probability, which a sample holds
    to within four binomial sigmas, and ``"tree"`` for a count of the whole
    enumerated tree, which a sample does not grow and does not check.
    """

    __slots__ = ()


# what a run grew: the whole tree, or the draws of a sample
Outcome = HistoryTree | SampleSummary


class Scenario(namedtuple("Scenario", ("name", "net", "initial", "foliation", "imposed",
                                       "quantities", "expected", "params", "evaluate"),
                          defaults=(None, MappingProxyType({}), (), MappingProxyType({}),
                                    None))):
    """A shipped scenario.

    ``name`` (a str) runs ``initial`` (a :class:`State`) on ``net`` (an
    :class:`AlgebraNet`) along ``foliation`` (a :class:`Foliation`).
    ``imposed`` maps Points to :class:`PotentialEvent` or is None,
    ``quantities`` maps names to :class:`PhysicalQuantity`, ``expected``
    is a sequence of :class:`Expected` and ``params`` a mapping.
    ``evaluate(scenario, outcome, policy)``, or None, returns the actual
    value of each name in ``expected``, as a dict of floats, computed
    through the event machinery.  It reads ``outcome`` (a
    :class:`HistoryTree` or :class:`SampleSummary`) where it needs the
    branching; with ``None`` it enumerates the tree itself (see
    :func:`evaluate_expected`).
    """

    __slots__ = ()


class EvaluatedExpectation(namedtuple("EvaluatedExpectation", (
        "name", "expected", "actual", "tol", "ok", "derivation"))):
    """One expected row checked: str ``name`` and ``derivation``, float
    ``expected``, ``actual`` and ``tol``, and the bool ``ok``."""

    __slots__ = ()


def _singlet_state(policy: NumericPolicy) -> State:
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return State.from_vector(psi, policy=policy)


def epr_scenario(n_dir=(0.0, 0.0, 1.0), n_prime_dir=(1.0, 0.0, 0.0),
                 *, policy: NumericPolicy = DEFAULT_POLICY) -> Scenario:
    """Two spacelike spin measurements on a shared singlet.

    The left (x=0) and right (x=1) points carry disjoint tensor factors, so
    the imposed spin families commute identically; joint outcome statistics
    follow the singlet correlation law 1/4 (1 - ss' n.n').
    """
    lattice = CausalLattice(1, 2)
    net = build_tensor_net(lattice, 2, policy=policy)
    left, right = Point(0, 0), Point(0, 1)
    # spin_projections refuses a zero direction before anything divides by its norm
    pl_plus, pl_minus = linalg.spin_projections(n_dir)
    pr_plus, pr_minus = linalg.spin_projections(n_prime_dir)
    n = np.asarray(n_dir, dtype=float)
    npr = np.asarray(n_prime_dir, dtype=float)
    n = n / np.linalg.norm(n)
    npr = npr / np.linalg.norm(npr)
    imposed = {
        left: PotentialEvent([net.embed(pl_plus, (0,)), net.embed(pl_minus, (0,))],
                             labels=("+", "-"), policy=policy),
        right: PotentialEvent([net.embed(pr_plus, (1,)), net.embed(pr_minus, (1,))],
                              labels=("+", "-"), policy=policy),
    }
    sigma_n = n[0] * linalg.PAULI_X + n[1] * linalg.PAULI_Y + n[2] * linalg.PAULI_Z
    sigma_np = npr[0] * linalg.PAULI_X + npr[1] * linalg.PAULI_Y + npr[2] * linalg.PAULI_Z
    quantities = {
        "left-spin": PhysicalQuantity("left-spin", {left: Operator(net.embed(sigma_n, (0,)))}),
        "right-spin": PhysicalQuantity("right-spin", {right: Operator(net.embed(sigma_np, (1,)))}),
    }
    dot = float(n @ npr)
    expected = []
    for s_l, sign_l in (("+", 1.0), ("-", -1.0)):
        for s_r, sign_r in (("+", 1.0), ("-", -1.0)):
            expected.append(Expected(
                name=f"joint_prob[{s_l}{s_r}]",
                value=0.25 * (1.0 - sign_l * sign_r * dot),
                tol=1e-12,
                derivation="singlet correlation closed form", kind="probability"))
    expected.append(Expected("commutator_max", 0.0, 0.0,
                             "disjoint tensor factors commute identically"))
    expected.append(Expected("order_dependence", 0.0, 1e-12,
                             "commuting families condition identically"))
    expected.append(Expected("unconditioned_prob", 0.5, 1e-12,
                             "reduced singlet state is maximally mixed"))
    expected.append(Expected("conditioned_prob", 0.5 * (1.0 - dot), 1e-12,
                             "opposite-spin conditioning on the singlet"))
    return Scenario(name="epr", net=net, initial=_singlet_state(policy),
                    foliation=foliate(lattice), imposed=imposed,
                    quantities=quantities, expected=expected,
                    params={"n": n.tolist(), "n_prime": npr.tolist()},
                    evaluate=_evaluate_epr)


def _grown(scenario: Scenario, outcome: Outcome | None, policy: NumericPolicy) -> Outcome:
    """The run's outcome, or the scenario's tree enumerated under ``policy``."""
    if outcome is not None:
        return outcome
    return enumerate_tree(scenario.net, scenario.foliation, scenario.initial,
                          policy=policy, imposed=scenario.imposed)


def _leaf_probabilities(outcome: Outcome) -> list[tuple[tuple, float]]:
    """Each leaf's (tau, x, label) steps and its probability.

    A tree gives its leaves' path probabilities, in the order of
    :meth:`HistoryTree.leaf_paths`; a sample gives the frequency of each
    leaf its draws reached, as the report's sample rows do.
    """
    if isinstance(outcome, SampleSummary):
        return list(outcome.frequencies().items())
    return outcome.leaf_steps()


def _evaluate_spacelike_pair(scenario: Scenario, outcome: Outcome | None,
                             policy: NumericPolicy) -> dict[str, float]:
    """Commutator, conditioning-order and joint-outcome actuals of the imposed families.

    The commutator is the worst the engine found at the root, where both
    families fire and every draw passes; families on disjoint cells give
    exactly 0.0.
    """
    outcome = _grown(scenario, outcome, policy)
    actuals = {"commutator_max": outcome.max_commutator,
               "order_dependence": order_independence_check(scenario, policy=policy)}
    # zero-probability branches are pruned from the tree, so seed every
    # joint outcome with 0 and let the leaf paths overwrite it
    pairs = _imposed_pairs_first_leaf(scenario)
    for la in pairs[0][1].labels:
        for lb in pairs[1][1].labels:
            actuals[f"joint_prob[{la}{lb}]"] = 0.0
    for steps, prob in _leaf_probabilities(outcome):
        actuals[f"joint_prob[{''.join(str(label) for *_, label in steps)}]"] = prob
    return actuals


def _evaluate_epr(scenario: Scenario, outcome: Outcome | None,
                  policy: NumericPolicy) -> dict[str, float]:
    actuals = _evaluate_spacelike_pair(scenario, outcome, policy)
    report = nonlocality_demo(scenario, ("+", "+"), policy=policy)
    actuals["unconditioned_prob"] = report.unconditioned
    actuals["conditioned_prob"] = report.conditioned
    return actuals


def epr_overlap_scenario(n_dir=(0.0, 0.0, 1.0), n_prime_dir=(1.0, 0.0, 0.0),
                         *, policy: NumericPolicy = DEFAULT_POLICY) -> Scenario:
    """Deliberately broken variant: both families act on the same factor.

    With both spin families embedded on the left cell they no longer
    commute, and conditioning becomes order dependent — the negative
    control for the locality checks.
    """
    base = epr_scenario(n_dir, n_prime_dir, policy=policy)
    net = base.net
    npr = np.asarray(base.params["n_prime"], dtype=float)
    pr_plus, pr_minus = linalg.spin_projections(npr)
    imposed = dict(base.imposed)
    imposed[Point(0, 1)] = PotentialEvent(
        [net.embed(pr_plus, (0,)), net.embed(pr_minus, (0,))],
        labels=("+", "-"), policy=policy)
    dot = float(np.asarray(base.params["n"]) @ npr)
    cross = float(np.sqrt(max(0.0, 1.0 - dot * dot)))
    # sign pair (s, s') weighs (1 + s s' n.n')/4 in either order; its two conditioned
    # states are pure, with squared overlap f^2 for f = (1 + s s' n.n')/2: sqrt(1 - f^2) apart
    overlaps = [(1.0 + sign * dot) / 2.0 for sign in (1.0, -1.0)
                if (1.0 + sign * dot) / 4.0 >= policy.prob_floor]
    order_gap = max(float(np.sqrt(max(0.0, 1.0 - f * f))) for f in overlaps)
    expected = [
        Expected("commutator_max", 0.5 * cross, 1e-12,
                 "same-factor spin projections fail to commute"),
        Expected("order_dependence", order_gap, 1e-9,
                 "conditioning order changes the final state"),
    ]
    return Scenario(name="epr-overlap", net=net, initial=base.initial,
                    foliation=base.foliation, imposed=imposed,
                    quantities={}, expected=expected, params=base.params,
                    evaluate=_evaluate_spacelike_pair)


def _require_resolved(spectrum: tuple[float, ...], floor: float,
                      policy: NumericPolicy) -> None:
    """Refuse levels the detection merges (gap at most ``gap_min``) or drops (below ``floor``).

    A closed form that counts one outcome per level holds only when every
    level is its own outcome and is kept.
    """
    if min(np.diff(sorted(spectrum))) <= policy.gap_min:
        raise ConfigError("spectrum gaps must exceed the clustering threshold")
    if min(spectrum) < floor:
        raise ConfigError(f"spectrum level {min(spectrum)!r} is below the floor {floor!r}")


def massive_control(extent_tau: int = 2, spectrum: Sequence[float] = (0.75, 0.25),
                    *, policy: NumericPolicy = DEFAULT_POLICY) -> Scenario:
    """Structureless control: every point carries the full algebra.

    Nothing shrinks toward the future, so no causal order is derivable and
    an event can only fire once — after the first collapse the state is
    pure on the (single) factor and all later detections are trivial.
    """
    lattice = CausalLattice(extent_tau, 1)
    spectrum = tuple(float(s) for s in spectrum)
    if len(spectrum) < 2:
        raise ConfigError("control spectrum needs at least two levels")
    if any(s <= 0 for s in spectrum):
        raise ConfigError("control spectrum must be strictly positive (faithful)")
    _require_resolved(spectrum, policy.prob_floor, policy)
    net = build_full_net(lattice, len(spectrum), 1, policy=policy)
    initial = State.diagonal(spectrum, policy=policy)
    expected = [
        Expected("n_leaves", float(len(spectrum)), 0.0,
                 "one collapse resolves the full algebra", kind="tree"),
        Expected("first_leaf_outcomes", float(len(spectrum)), 0.0,
                 "faithful mixed state branches over its spectrum", kind="tree"),
        Expected("later_branchings", 0.0, 0.0,
                 "collapsed state is pure; no further events", kind="tree"),
        Expected("derived_future_pairs", 0.0, 0.0,
                 "equal algebras admit no strict nesting"),
    ]
    return Scenario(name="massive-control", net=net, initial=initial,
                    foliation=foliate(lattice), expected=expected,
                    params={"spectrum": list(spectrum)}, evaluate=_evaluate_massive_control)


def _evaluate_massive_control(scenario: Scenario, outcome: Outcome | None,
                              policy: NumericPolicy) -> dict[str, float]:
    paths = _leaf_probabilities(_grown(scenario, outcome, policy))
    deep = max((sum(tau > 0 for tau, *_ in steps) for steps, _ in paths), default=0)
    # the root's children are the distinct first steps of the leaf paths
    return {
        "n_leaves": float(len(paths)),
        "first_leaf_outcomes": float(len({steps[0] for steps, _ in paths if steps})),
        "later_branchings": float(deep),
        "derived_future_pairs": float(
            len(derive_causal_order(scenario.net, policy=policy).future_pairs)),
    }


def two_leaf_chain(seed: int = 7, spectrum: Sequence[float] = (0.4, 0.3, 0.2, 0.1),
                   *, policy: NumericPolicy = DEFAULT_POLICY) -> Scenario:
    """A 2-step chain whose branch probabilities are known in closed form.

    The initial state is a fixed-seed unitary rotation of a nondegenerate
    diagonal state on the two-cell product.  The first detection branches
    over the spectrum; each branch then branches again over the reduced
    state of its eigenvector on the later cell.  All leaf probabilities
    are computed here by direct eigendecomposition arithmetic, independent
    of the event machinery that reproduces them.
    """
    spectrum = tuple(float(s) for s in spectrum)
    if len(spectrum) != 4:
        raise ConfigError(f"spectrum has {len(spectrum)} levels, not the 4 of two qubits")
    if list(spectrum) != sorted(spectrum, reverse=True):
        raise ConfigError("spectrum must be given in decreasing order")
    _require_resolved(spectrum, policy.prob_floor, policy)
    lattice = CausalLattice(2, 1)
    net = build_tensor_net(lattice, 2, policy=policy)
    rng = np.random.default_rng(seed)
    v = linalg.random_unitary(4, rng)
    rho = (v * np.asarray(spectrum)) @ v.conj().T
    initial = State(rho, policy=policy)

    # every eigenvector's pure state at once, reduced to the later cell: one
    # batched partial trace and one batched eigvalsh, each value in decreasing order
    pure = v.T[:, :, None] * v.T.conj()[:, None, :]
    vals = np.linalg.eigvalsh(linalg.partial_trace(pure, (1,), 2, 2))[:, ::-1]
    if ((vals[:, 0] - vals[:, 1] <= policy.gap_min) | (vals[:, 1] < 10 * policy.prob_floor)).any():
        raise ConfigError(f"seed {seed} gives a degenerate second-step spectrum; pick another")
    probs = (np.asarray(spectrum)[:, None] * vals).tolist()
    expected = [Expected("total_prob", 1.0, 1e-12, "leaf probabilities are exhaustive",
                         kind="probability")]
    expected += [Expected(name=f"leaf_prob[{i},{j}]", value=w, tol=1e-12,
                          derivation="eigendecomposition arithmetic on the initial state",
                          kind="probability")
                 for i, row in enumerate(probs) for j, w in enumerate(row)]
    expected.append(Expected("n_leaves", float(vals.size), 0.0,
                             "nondegenerate spectra at both steps", kind="tree"))
    return Scenario(name="two-leaf-chain", net=net, initial=initial,
                    foliation=foliate(lattice), expected=expected,
                    params={"seed": seed, "spectrum": list(spectrum)},
                    evaluate=_evaluate_two_leaf_chain)


def _evaluate_two_leaf_chain(scenario: Scenario, outcome: Outcome | None,
                             policy: NumericPolicy) -> dict[str, float]:
    paths = _leaf_probabilities(_grown(scenario, outcome, policy))
    actuals = {f"leaf_prob[{','.join(str(label) for *_, label in steps)}]": prob
               for steps, prob in paths}
    actuals["total_prob"] = sum(prob for _, prob in paths)
    actuals["n_leaves"] = float(len(paths))
    return actuals


def recording_demo(spectrum: Sequence[float] = (0.75, 0.25), tilt: float = 0.01,
                   *, policy: NumericPolicy = DEFAULT_POLICY,
                   epsilon: float = 0.05) -> Scenario:
    """Single-cell recording testbed with three quantities.

    "aligned" shares its eigenprojections with the event family and is
    recorded exactly; "transverse" is maximally misaligned and fails with
    alignment norms of exactly 1/2; "tilted" is the aligned quantity
    rotated by ``tilt``, with alignment norm ``|sin tilt| / 2``, so it
    passes at the resolution ``epsilon`` only for a tilt small enough.
    Both levels of the spectrum must be resolved outcomes at that
    resolution, which is the run's (see :func:`build_scenario`).
    """
    lattice = CausalLattice(1, 1)
    net = build_tensor_net(lattice, 2, policy=policy)
    p = Point(0, 0)
    spectrum = tuple(float(s) for s in spectrum)
    if len(spectrum) != 2:
        raise ConfigError(f"spectrum has {len(spectrum)} levels, not the 2 of one qubit")
    _require_resolved(spectrum, max(policy.prob_floor, epsilon), policy)
    if not is_real_number(tilt) or not abs(tilt) <= sys.float_info.max:
        raise ConfigError(f"tilt: {tilt!r} is not a finite real number")
    initial = State.diagonal(spectrum, policy=policy)
    aligned = np.diag([2.0, -3.0]).astype(complex)
    half = tilt / 2.0
    rot = np.array([[np.cos(half), -np.sin(half)],
                    [np.sin(half), np.cos(half)]], dtype=complex)
    tilted = rot @ linalg.PAULI_Z @ rot.conj().T
    quantities = {
        "aligned": PhysicalQuantity("aligned", {p: Operator(aligned)}),
        "transverse": PhysicalQuantity("transverse", {p: Operator(linalg.PAULI_X)}),
        "tilted": PhysicalQuantity("tilted", {p: Operator(tilted)}),
    }
    expected = [
        Expected("aligned_max_norm", 0.0, 1e-10,
                 "shared eigenprojections average to themselves"),
        Expected("transverse_norm[0]", 0.5, 1e-10,
                 "averaging a transverse projection yields half the identity"),
        Expected("transverse_norm[1]", 0.5, 1e-10,
                 "averaging a transverse projection yields half the identity"),
        Expected("tilted_passes", 1.0 if abs(math.sin(tilt)) / 2.0 < epsilon else 0.0, 0.0,
                 "the tilted alignment norm |sin tilt|/2 passes below the resolution"),
        Expected("mixture_defect_transverse", abs(spectrum[0] - 0.5), 1e-12,
                 "block-diagonalizing in the transverse basis levels the spectrum"),
    ]
    return Scenario(name="recording-demo", net=net, initial=initial,
                    foliation=foliate(lattice), quantities=quantities,
                    expected=expected,
                    params={"spectrum": list(spectrum), "tilt": tilt,
                            "epsilon": epsilon, "default_quantity": "aligned",
                            "record_point": [0, 0]},
                    evaluate=_evaluate_recording_demo)


def _evaluate_recording_demo(scenario: Scenario, outcome: Outcome | None,
                             policy: NumericPolicy) -> dict[str, float]:
    p = Point(0, 0)
    eps = scenario.params["epsilon"]
    reports = {name: recording_check(scenario.net, p, scenario.initial,
                                     scenario.quantities[name], eps, policy=policy)
               for name in ("aligned", "transverse", "tilted")}
    actuals = {"aligned_max_norm": max(reports["aligned"].alignment_norms, default=0.0),
               "tilted_passes": 1.0 if reports["tilted"].passes else 0.0}
    for k, n in enumerate(reports["transverse"].alignment_norms):
        actuals[f"transverse_norm[{k}]"] = n
    units = linalg.matrix_units(2)
    px_plus, px_minus = linalg.spin_projections((1.0, 0.0, 0.0))
    actuals["mixture_defect_transverse"] = mixture_defect(
        scenario.initial, [px_plus, px_minus], units)
    return actuals


SCENARIO_BUILDERS: dict[str, Callable[..., Scenario]] = {
    "epr": epr_scenario,
    "epr-overlap": epr_overlap_scenario,
    "massive-control": massive_control,
    "two-leaf-chain": two_leaf_chain,
    "recording-demo": recording_demo,
}


def build_scenario(name: str, params: Mapping | None = None,
                   *, policy: NumericPolicy = DEFAULT_POLICY, epsilon: float = 0.05) -> Scenario:
    """The scenario ``name`` built from ``params``, under ``policy``.

    ``epsilon`` is the run's resolution: a builder with a keyword-only
    ``epsilon`` (:func:`recording_demo`) is built at it, so its expected
    values hold at the resolution the run records at.  Bad parameters
    raise :class:`ConfigError`.
    """
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; pick one of {sorted(SCENARIO_BUILDERS)}") from None
    resolution = {"epsilon": epsilon} if "epsilon" in (builder.__kwdefaults__ or ()) else {}
    try:
        return builder(**dict(params or {}), policy=policy, **resolution)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: a number beyond float range
        raise ConfigError(f"bad parameters for scenario {name!r}: {exc}") from None


def _imposed_pairs_first_leaf(scenario: Scenario) -> list[tuple[Point, PotentialEvent]]:
    if not scenario.imposed:
        raise ValueError(f"scenario {scenario.name!r} has no imposed families")
    leaf = scenario.foliation.leaves[0]
    return [(p, scenario.imposed[p]) for p in leaf if p in scenario.imposed]


def order_independence_check(scenario: Scenario,
                             *, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Largest change from swapping the conditioning order of two families.

    For every joint outcome of the first two imposed families on the first
    foliation leaf, conditions in both orders and compares joint
    probabilities, and final states in operator norm (which, unlike the
    largest entry, does not depend on the basis).  Commuting families give
    zero to rounding; overlapping ones do not.
    """
    pairs = _imposed_pairs_first_leaf(scenario)
    if len(pairs) < 2:
        raise ValueError("order independence needs two imposed families")
    (_, fam_a), (_, fam_b) = pairs[0], pairs[1]
    rho = scenario.initial.rho
    worst = 0.0
    for pa in fam_a.projections:
        for pb in fam_b.projections:
            ma, mb = pa.entries, pb.entries
            first = mb @ (ma @ rho @ ma) @ mb
            second = ma @ (mb @ rho @ mb) @ ma
            w1 = float(np.trace(first).real)
            w2 = float(np.trace(second).real)
            worst = max(worst, abs(w1 - w2))
            if min(w1, w2) < policy.prob_floor:
                continue
            worst = max(worst, linalg.operator_norm(linalg.trace_normalized(first)
                                                    - linalg.trace_normalized(second)))
    return worst


class NonlocalityReport(namedtuple("NonlocalityReport", (
        "left_label", "right_label", "unconditioned", "conditioned", "difference"))):
    """Unconditioned vs conditioned probability of a distant outcome.

    ``left_label`` and ``right_label`` are the two outcome labels; the
    other three fields are floats.
    """

    __slots__ = ()


def nonlocality_demo(scenario: Scenario, outcome: tuple = ("+", "+"),
                     *, policy: NumericPolicy = DEFAULT_POLICY) -> NonlocalityReport:
    """Probability of a right-hand outcome before and after the left collapse.

    The unconditioned value never references the left family (that is the
    locality of expectations); the conditioned value does and generally
    differs — conditioning is where the nonlocal correlations live.  A left
    outcome below ``prob_floor`` raises :class:`NullBranchError`.
    """
    pairs = _imposed_pairs_first_leaf(scenario)
    if len(pairs) < 2:
        raise ValueError("nonlocality demo needs two imposed families")
    (_, fam_l), (_, fam_r) = pairs[0], pairs[1]
    proj_l = dict(fam_l.items())[outcome[0]]
    proj_r = dict(fam_r.items())[outcome[1]]
    rho = scenario.initial.rho
    unconditioned = float(np.einsum("ij,ji->", rho, proj_r.entries).real)
    ml = proj_l.entries
    collapsed = normalize_branch(ml @ rho @ ml, policy)
    conditioned = float(np.einsum("ij,ji->", collapsed, proj_r.entries).real)
    return NonlocalityReport(left_label=outcome[0], right_label=outcome[1],
                             unconditioned=unconditioned, conditioned=conditioned,
                             difference=abs(unconditioned - conditioned))


def evaluate_expected(scenario: Scenario, outcome: Outcome | None = None,
                      *, policy: NumericPolicy = DEFAULT_POLICY) -> list[EvaluatedExpectation]:
    """Compare every expected value with the scenario's own evaluation of it.

    ``outcome`` is what a run of the scenario grew under ``policy``.  Its
    :class:`HistoryTree` gives every value the scenario's own enumeration
    gives, bit for bit.  Its :class:`SampleSummary` gives each
    ``"probability"`` value as a sampled frequency, 0 on a path no draw
    reached, held to ``max(tol, 4 sqrt(p (1 - p) / n))`` around the closed
    form p; ``"tree"`` values are left out.  Without an outcome, the
    evaluator enumerates the scenario's tree if it reads one.
    """
    actuals = scenario.evaluate(scenario, outcome, policy) if scenario.evaluate is not None else {}
    sampled = isinstance(outcome, SampleSummary)
    out = []
    for exp in scenario.expected:
        if sampled and exp.kind == "tree":
            continue
        drawn = sampled and exp.kind == "probability"
        actual = actuals.get(exp.name, 0.0 if drawn else float("nan"))
        tol = exp.tol
        if drawn:  # the closed form can stray past [0, 1] by a rounding
            spread = max(0.0, exp.value * (1.0 - exp.value)) / outcome.n_samples
            tol = max(tol, 4.0 * math.sqrt(spread))
        ok = bool(abs(actual - exp.value) <= tol) if np.isfinite(actual) else False
        out.append(EvaluatedExpectation(name=exp.name, expected=exp.value,
                                        actual=actual, tol=tol, ok=ok,
                                        derivation=exp.derivation))
    return out
