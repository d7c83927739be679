"""Command-line runner: configure a net or scenario, run, emit a report.

Configuration is a JSON file; a handful of flags override its fields, and
one validator checks both, so a bad flag exits 1 like a bad field.
:func:`main` imports ``argparse`` and the CSV branch of :func:`emit_report`
imports ``csv``, so a caller of :func:`load_config`, :func:`run` and
:func:`serialize_report` loads neither.
Reports are deterministic functions of (config, seed), with no timestamps
and no wall-clock data (timings go to stderr).  Their canonical bytes are
``json.dumps(report, sort_keys=True, check_circular=False) + "\n"``
(:func:`serialize_report`), so a structured report is one line;
``python -m json.tool --sort-keys --indent 2`` indents it.  No cycle check
is needed: :func:`run` builds each report as a tree of containers, and
the lists it shares between nodes (a point's [tau, x], a step's
[tau, x, label]) hold no container, so none can lead back to itself.
The ``config`` echo is the only record of the input.  A config-given
initial state appears there with its kind as written and its numbers
(``weights`` of a ``diagonal``, ``entries`` of a ``vector`` or
``matrix``) as their exact float64 bits, not as decimal text:
``{"shape": [...], "float64_le": "<base64>"}``, which
``np.frombuffer(binascii.a2b_base64(e["float64_le"]), "<f8").reshape(e["shape"])``
reads back: printing each float's shortest decimal took longer than
enumerating the tree of a 64 x 64 state.  A ``maximally-mixed`` state
echoes as written, and a scenario's or the default state follows from
the echoed fields.  The tree section is read off the history tree's rows
(:meth:`HistoryTree.rows`), once; no node object is built.  Its leaves
are :meth:`HistoryTree.leaf_steps` and a sample's rows are
:attr:`SampleSummary.counts`, both in tree order, which the CSV rows
keep.  A scenario's ``expected`` block is evaluated on the tree or the
sample the run grew, so no run grows a tree twice.

Exit codes: 0 success, 1 configuration problems, 2 numeric failures
(including a commutation abort), 3 resource caps or running out of memory.
"""

from __future__ import annotations

import binascii
import gc
import json
import sys
import time
from collections import namedtuple
from contextlib import contextmanager
from typing import Any, Mapping

import numpy as np

from .errors import CapExceededError, ConfigError, EventNetError
from .histories import MAX_SAMPLES, enumerate_tree, sample_paths
from .measurement import recording_check
from .opalg import State
from .policy import DEFAULT_POLICY, NumericPolicy, is_integer_at_least, is_real_number
from .scenarios import (SCENARIO_BUILDERS, Scenario, build_scenario,
                        evaluate_expected)
from .spacetime import (CausalLattice, Point, build_full_net, build_tensor_net,
                        derive_causal_order, foliate)

__all__ = [
    "RunConfig",
    "load_config",
    "run",
    "serialize_report",
    "parse_report",
    "emit_report",
    "main",
]

_MODES = ("enumerate", "sample", "record")
_FORMATS = ("structured", "csv")
_COMMUTATION = ("warn", "abort")
# integer net fields: name, default, least allowed value
_NET_SIZES = (("extent_tau", 1, 1), ("extent_x", 1, 1), ("speed", 1, 1),
              ("cell_dim", 2, 2), ("n_cells", 1, 1))

# the keys a "net" or a "record" object may hold; "scenario_params" goes to the builder
_OBJECT_KEYS = {"net": {"kind"} | {name for name, *_ in _NET_SIZES},
                "record": {"quantity", "point"}}
# the keys an "initial_state" object of each kind may hold
_STATE_KEYS = {"maximally-mixed": {"kind"}, "diagonal": {"kind", "weights"},
               "vector": {"kind", "entries"}, "matrix": {"kind", "entries"}}

class RunConfig(namedtuple("RunConfig", (
        "scenario", "scenario_params", "net", "initial_state", "mode", "samples", "seed",
        "epsilon", "commutation", "record", "format", "out", "policy"),
        defaults=(None, {}, None, None, "enumerate", 1000, None, 0.05, "warn", {},
                  "structured", None, DEFAULT_POLICY))):
    """Validated run description; every field but ``out`` and ``policy`` is echoed.

    ``scenario``, ``mode``, ``commutation``, ``format`` and ``out`` are strs
    (``scenario`` and ``out`` may be None), ``scenario_params`` and
    ``record`` dicts, ``net`` and ``initial_state`` dicts or None,
    ``samples`` an int, ``seed`` an int or None, ``epsilon`` a float and
    ``policy`` a :class:`NumericPolicy`.  :func:`load_config` builds one.
    The default dicts are shared and only read; a config read from JSON
    holds dicts of its own.
    """

    __slots__ = ()

    def echo(self) -> dict:
        echo = self._asdict()
        del echo["out"], echo["policy"]
        return echo


def _validate_config(raw: Mapping[str, Any]) -> RunConfig:
    problems = []
    unknown = set(raw) - set(RunConfig._fields)
    if unknown:
        problems.append(f"unknown fields {sorted(unknown)}")
    cfg = RunConfig._field_defaults | {"scenario_params": {}, "record": {}}
    if "scenario" in raw and raw["scenario"] is not None:
        if not isinstance(raw["scenario"], str):
            problems.append("scenario: must be a string")
        elif raw["scenario"] not in SCENARIO_BUILDERS:
            problems.append(f"scenario: unknown name {raw['scenario']!r}; "
                            f"known: {sorted(SCENARIO_BUILDERS)}")
        else:
            cfg["scenario"] = raw["scenario"]
    for key in ("scenario_params", "net", "record"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], dict):
                problems.append(f"{key}: must be an object")
                continue
            cfg[key] = dict(raw[key])
            extra = set(raw[key]) - _OBJECT_KEYS[key] if key in _OBJECT_KEYS else ()
            if extra:
                problems.append(f"{key}: unknown keys {sorted(extra)}")
    if cfg["scenario"] and cfg["net"]:
        problems.append("scenario and net are mutually exclusive")
    if not cfg["scenario"] and not cfg["net"]:
        problems.append("one of scenario or net is required")
    state = raw.get("initial_state")
    if state is not None:
        if not isinstance(state, dict) or "kind" not in state:
            problems.append("initial_state: must be an object with a 'kind'")
        elif state["kind"] not in tuple(_STATE_KEYS):  # a tuple: the kind may be unhashable
            problems.append(f"initial_state: kind {state['kind']!r} is not recognized; "
                            f"known: {list(_STATE_KEYS)}")
        elif extra := set(state) - _STATE_KEYS[state["kind"]]:
            problems.append(f"initial_state: unknown keys {sorted(extra)} "
                            f"for kind {state['kind']!r}")
        else:
            cfg["initial_state"] = dict(state)
    for key, choices in (("mode", _MODES), ("commutation", _COMMUTATION),
                         ("format", _FORMATS)):
        value = raw.get(key, cfg[key])
        if value in choices:
            cfg[key] = value
        else:
            problems.append(f"{key}: {value!r} is not one of {choices}")
    if raw.get("samples") is not None:
        if is_integer_at_least(raw["samples"], 1) and raw["samples"] <= MAX_SAMPLES:
            cfg["samples"] = raw["samples"]
        else:
            problems.append(f"samples: {raw['samples']!r} is not a count from 1 to {MAX_SAMPLES}")
    seed = raw.get("seed")
    if seed is None or is_integer_at_least(seed, 0):
        cfg["seed"] = seed
    else:
        problems.append(f"seed: {seed!r} is not a non-negative integer or null")
    if raw.get("epsilon") is not None:
        if not is_real_number(raw["epsilon"]):
            problems.append(f"epsilon: {raw['epsilon']!r} is not a number")
        elif not 0.0 < raw["epsilon"] < 1.0:
            problems.append("epsilon: must lie strictly between 0 and 1")
        else:
            cfg["epsilon"] = float(raw["epsilon"])
    if "out" in raw and raw["out"] is not None:
        if not isinstance(raw["out"], str):
            problems.append("out: must be a path string")
        else:
            cfg["out"] = raw["out"]
    if "policy" in raw and raw["policy"] is not None:
        if not isinstance(raw["policy"], dict):
            problems.append("policy: must be an object of tolerance overrides")
        else:
            known = set(DEFAULT_POLICY.as_dict())
            bad = set(raw["policy"]) - known
            if bad:
                problems.append(f"policy: unknown tolerances {sorted(bad)}")
            else:
                try:
                    cfg["policy"] = NumericPolicy(**raw["policy"])
                except ValueError as exc:
                    problems.append(f"policy: {exc}")
    if cfg["epsilon"] < cfg["policy"].eps_floor:
        problems.append(f"epsilon: {cfg['epsilon']!r} is below the resolution floor "
                        f"eps_floor={cfg['policy'].eps_floor!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return RunConfig(**cfg)


def load_config(path: str | None, overrides: Mapping[str, Any]) -> RunConfig:
    """Read the JSON config (if any) and apply command-line overrides."""
    raw: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # bad json, bytes that are not UTF-8, or an oversized integer
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    return _validate_config(raw)


# ---------------------------------------------------------------------------
# serialization helpers


def _real_array(values, ndim: int) -> np.ndarray:
    """``values`` as a float array: lists nested ``ndim`` deep, of one length per depth.

    Each number must be finite, real and not a bool; else ``TypeError``.
    JSON gives every number as an int or a float.
    """
    arr = np.array(values, dtype=object)  # ragged lists stop at a shallower depth
    if arr.ndim != ndim:
        raise TypeError("entries are not lists of one length at each depth")
    if not set(map(type, arr.flat)) <= {int, float}:
        raise TypeError("an entry is not a real number")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise TypeError("an entry is not a finite number")
    return arr


def _float64_bits(arr: np.ndarray) -> dict:
    """``arr`` by its exact bits: its shape and its little-endian float64 bytes in base64."""
    data = binascii.b2a_base64(arr.astype("<f8", copy=False).tobytes(), newline=False)
    return {"shape": list(arr.shape), "float64_le": data.decode("ascii")}


def _state_from_config(desc: Mapping[str, Any] | None, dim: int,
                       policy: NumericPolicy) -> tuple[State, Mapping[str, Any] | None]:
    """The state a config's ``initial_state`` describes, and that description's echo.

    The echo is ``desc`` with its numbers (``weights`` or ``entries``)
    replaced by :func:`_float64_bits` of the floats they were read as; a
    ``maximally-mixed`` state, or none given, echoes as ``desc``.
    """
    kind = "maximally-mixed" if desc is None else desc["kind"]  # checked by _validate_config
    echo = desc
    try:
        if kind == "maximally-mixed":
            state = State.maximally_mixed(dim, policy=policy)
        elif kind == "diagonal":
            weights = _real_array(desc["weights"], 1)
            state = State.diagonal(weights, policy=policy)
            echo = {"kind": kind, "weights": _float64_bits(weights)}
        else:  # [re, im] pairs, viewed as complex numbers
            pairs = _real_array(desc["entries"], 2 if kind == "vector" else 3)
            if pairs.shape[-1] != 2:
                raise TypeError(f"an entry has {pairs.shape[-1]} numbers, not the 2 of [re, im]")
            z = np.ascontiguousarray(pairs).view(complex)[..., 0]
            state = (State.from_vector if kind == "vector" else State)(z, policy=policy)
            echo = {"kind": kind, "entries": _float64_bits(pairs)}
    except (KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"initial_state is malformed: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"initial_state is not a valid state: {exc}") from exc
    if state.dim != dim:
        raise ConfigError(f"initial_state has dimension {state.dim}, but the net has {dim}")
    return state, echo


def _net_from_config(desc: Mapping[str, Any], policy: NumericPolicy):
    kind = desc.get("kind", "cone")
    if kind not in ("cone", "full"):
        raise ConfigError(f"net kind {kind!r} is not one of ('cone', 'full')")
    size = {}
    for name, default, low in _NET_SIZES:
        size[name] = desc.get(name, default)
        if not is_integer_at_least(size[name], low):
            raise ConfigError(f"net {name}: {size[name]!r} is not an integer of at least {low}")
    lattice = CausalLattice(size["extent_tau"], size["extent_x"], size["speed"])
    if kind == "cone":
        return build_tensor_net(lattice, size["cell_dim"], policy=policy)
    points = lattice.extent_tau * lattice.extent_x
    if size["n_cells"] > points:
        raise ConfigError(f"net n_cells: {size['n_cells']} is more than the lattice's "
                          f"{points} points")
    return build_full_net(lattice, size["cell_dim"], size["n_cells"], policy=policy)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while the tree section's containers are built.

    The tree section holds no reference cycles, but each collection walks
    every live container: on a tree of 5e5 rows, collecting as the dicts
    and lists pile up took longer than the build.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def _tree_section(tree) -> tuple[dict, list[dict]]:
    """The tree section and the detection rows, read off the tree's rows.

    Each row's node dict is appended to its parent row's ``children``, in
    row order, which is the order of ``tree.root``; the nodes of one
    ``TreeRows`` share one [tau, x] list.  The leaves are
    :meth:`HistoryTree.leaf_steps`, in its tree order, which reads the
    tree's arrays and not these lists; a leaf's path holds one shared
    [tau, x, label] list per step.  A detection row is one ``TreeRows``:
    the nodes one (leaf, point) made, and the largest outcome count among
    them.  No node object is built.
    """
    sums, points = tree.rows()
    nodes = [{"point": None, "label": None, "cond_prob": 1.0, "cum_prob": 1.0,
              "event_dim": None, "children_prob_sum": sums[0], "children": []}]
    steps = {}  # (tau, x, label) -> the one list every leaf path through that step holds
    detections = []
    for r in points:
        if not r.parent:
            continue
        tau, x = r.point
        at = [tau, x]  # the one point list every node of these rows holds
        for p, k, w, cum, dim in zip(r.parent, r.outcome, r.cond_prob, r.cum_prob,
                                     r.event_dim):
            node = {"point": at, "label": r.labels[k], "cond_prob": w, "cum_prob": cum,
                    "event_dim": dim, "children_prob_sum": sums[len(nodes)], "children": []}
            nodes[p]["children"].append(node)
            nodes.append(node)
        steps.update({(tau, x, label): [tau, x, label] for label in r.labels})
        detections.append({"leaf": r.leaf_index, "point": at, "nodes": len(r.parent),
                           "event_dim": max(r.event_dim)})
    leaves = [{"path": [steps[step] for step in path], "probability": prob}
              for path, prob in tree.leaf_steps()]
    section = {"root": nodes[0], "n_leaves": len(leaves), "pruned_mass": tree.pruned_mass,
               "leaves": leaves}
    detections.sort(key=lambda row: (row["leaf"], row["point"]))
    return section, detections


def _nesting_section(net, policy) -> dict:
    order = derive_causal_order(net, policy=policy)
    pairs = [{"p": list(rep.p), "q": list(rep.q),
              "strict_inclusion": rep.strict_inclusion,
              "rel_commutant_dim": rep.rel_commutant_dim,
              "rel_commutant_abelian": rep.rel_commutant_abelian,
              "holds": rep.holds}
             for rep in order.reports]
    return {
        "pairs": pairs,
        "future_pairs": len(order.future_pairs),
        "geometric_pairs": len(order.geometric_pairs),
        "matches_geometric": order.matches_geometric,
        "mismatches": len(order.mismatches),
    }


def run(cfg: RunConfig) -> tuple[dict, dict]:
    """Execute the configured run; returns (report, timings in seconds)."""
    policy = cfg.policy
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    scenario: Scenario | None = None
    if cfg.scenario:
        scenario = build_scenario(cfg.scenario, cfg.scenario_params, policy=policy,
                                  epsilon=cfg.epsilon)
        net = scenario.net
        foliation = scenario.foliation
        initial, given = ((scenario.initial, None) if cfg.initial_state is None
                          else _state_from_config(cfg.initial_state, net.dim, policy))
        imposed = scenario.imposed
    else:
        net = _net_from_config(cfg.net, policy)
        foliation = foliate(net.lattice)
        initial, given = _state_from_config(cfg.initial_state, net.dim, policy)
        imposed = None
    timings["setup"] = time.perf_counter() - t0

    report: dict[str, Any] = {
        "tool": "eventnet",
        "config": {**cfg.echo(), "initial_state": given},
        "policy": policy.as_dict(),
        "lattice": {
            "extent_tau": net.lattice.extent_tau,
            "extent_x": net.lattice.extent_x,
            "speed": net.lattice.speed,
            "cell_dim": net.cell_dim,
            "n_cells": net.n_cells,
            "ambient_dim": net.dim,
        },
    }

    t0 = time.perf_counter()
    report["nesting"] = _nesting_section(net, policy)
    timings["nesting"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report["commutation"] = commutation = {"policy": cfg.commutation, "max_norm": 0.0,
                                           "entries": []}
    outcome = None  # the tree or the sample this run grows, for the expected block
    if cfg.mode == "enumerate":
        outcome = tree = enumerate_tree(net, foliation, initial, policy=policy,
                                        imposed=imposed, commutation=cfg.commutation)
        report["tree"], report["detections"] = _tree_section(tree)
        report["spectrum_dims"] = tree.spectrum_dims
        commutation["max_norm"] = tree.max_commutator
        commutation["entries"] = [{"leaf": li, "p": list(pa), "q": list(pb), "norm": n}
                                  for li, pa, pb, n in tree.commutation_norms]
    elif cfg.mode == "sample":
        outcome = summary = sample_paths(net, foliation, initial, cfg.samples, cfg.seed,
                                         policy=policy, imposed=imposed,
                                         commutation=cfg.commutation)
        rows = [{"path": [list(step) for step in key], "count": count,
                 "frequency": count / summary.n_samples}
                for key, count in summary.counts.items()]
        report["samples"] = {
            "n": summary.n_samples,
            "seed": cfg.seed,
            "paths": rows,
        }
        report["spectrum_dims"] = summary.spectrum_dims
        commutation["max_norm"] = summary.max_commutator
    else:  # record
        if scenario is None or not scenario.quantities:
            raise ConfigError("record mode needs a scenario that declares quantities")
        qname = cfg.record.get("quantity", scenario.params.get("default_quantity"))
        if qname not in scenario.quantities:
            raise ConfigError(
                f"record quantity {qname!r} not in {sorted(scenario.quantities)}")
        pt_raw = cfg.record.get("point", scenario.params.get("record_point"))
        if (not isinstance(pt_raw, (list, tuple)) or len(pt_raw) != 2
                or not all(is_integer_at_least(v, 0) for v in pt_raw)
                or not net.lattice.contains(Point(*pt_raw))):
            raise ConfigError(f"record point {pt_raw!r} is not a [tau, x] of the lattice")
        point, quantity = Point(*pt_raw), scenario.quantities[qname]
        if point not in quantity.representatives:
            raise ConfigError(f"record quantity {qname!r} has no representative at {pt_raw!r}; "
                              f"it has one at {sorted(map(list, quantity.representatives))}")
        rep = recording_check(net, point, initial, quantity, cfg.epsilon, policy=policy)
        report["recording"] = rep._asdict()
        report["spectrum_dims"] = []
    timings["run"] = time.perf_counter() - t0

    if scenario is not None and scenario.expected and cfg.initial_state is None:
        t0 = time.perf_counter()
        report["expected"] = [r._asdict()
                              for r in evaluate_expected(scenario, outcome, policy=policy)]
        timings["expected"] = time.perf_counter() - t0
    return report, timings


def serialize_report(report: dict) -> str:
    """Canonical bytes: ``json.dumps(report, sort_keys=True) + "\\n"``, one line.

    The call is ``json.dumps(report, sort_keys=True, check_circular=False)``.
    A report of :func:`run` is a tree of containers whose shared lists
    (points and steps) hold no container, so it has no cycle, and the
    encoder's per-container cycle bookkeeping would be wasted; a report
    that did hold one would recurse until ``RecursionError``.
    ``python -m json.tool --sort-keys --indent 2`` writes the same report
    indented.  A value json cannot hold raises ``TypeError``.
    """
    return json.dumps(report, sort_keys=True, check_circular=False) + "\n"


def parse_report(text: str) -> dict:
    return json.loads(text)


def _csv_rows(report: dict) -> tuple[list[str], list[list]]:
    def path(row):
        return "|".join(f"{t},{x}={lbl}" for t, x, lbl in row["path"])

    if "tree" in report:
        return ["path", "probability"], [[path(row), repr(row["probability"])]
                                         for row in report["tree"]["leaves"]]
    if "samples" in report:
        return ["path", "count", "frequency"], [[path(row), row["count"], repr(row["frequency"])]
                                                for row in report["samples"]["paths"]]
    if "recording" in report:
        rec = report["recording"]
        header = ["k", "eigenvalue", "weight", "alignment_norm",
                  "matched_label", "distance"]
        rows = []
        for k in range(rec["retained"]):
            _, lbl, dist = rec["matches"][k]
            rows.append([k, repr(rec["eigenvalues"][k]), repr(rec["weights"][k]),
                         repr(rec["alignment_norms"][k]),
                         "" if lbl is None else lbl, repr(dist)])
        return header, rows
    raise ValueError("report has no tabular section")


def emit_report(report: dict, fmt: str, out: str | None):
    """Write the report; returns the text when no path was given."""
    if fmt == "structured":
        text = serialize_report(report)
    else:
        import csv
        import io

        header, rows = _csv_rows(report)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if out is None:
        return text
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return None


def _refuse_flag(message):
    raise ConfigError(message)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="eventnet",
        description="Run an operator-algebra event simulation and emit a report.")
    parser.error = _refuse_flag  # a bad flag exits 1, as a bad config field does
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--scenario",
                        help=f"shipped scenario: {', '.join(sorted(SCENARIO_BUILDERS))}")
    parser.add_argument("--mode", help=f"what to compute: {', '.join(_MODES)}")
    parser.add_argument("--samples", type=int, help="sample count for sample mode")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", help=f"report format: {', '.join(_FORMATS)}")
    try:
        overrides = vars(parser.parse_args(argv))  # each flag but --config names a config field
        cfg = load_config(overrides.pop("config"), overrides)
        report, timings = run(cfg)
        text = emit_report(report, cfg.format, cfg.out)
    except EventNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, CapExceededError) else 2
    except OSError as exc:
        print(f"error: cannot write report to {cfg.out}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory while running or writing the report", file=sys.stderr)
        return 3
    for phase, secs in timings.items():
        print(f"timing {phase}: {secs:.3f}s", file=sys.stderr)
    if text is not None:
        sys.stdout.write(text)
    else:
        print(f"wrote {cfg.format} report to {cfg.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
