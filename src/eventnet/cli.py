"""Command-line runner: configure a net or scenario, run, emit a report.

Configuration is a JSON file; a handful of flags override its fields.
Reports are deterministic functions of (config, seed), with no timestamps
and no wall-clock data (timings go to stderr).  Their canonical bytes are
defined as ``json.dumps(report, indent=2, sort_keys=True) + "\n"`` and are
written by an equivalent writer, :func:`serialize_report`, which writes a
regular nested array of floats in one formatting pass.  Complex matrices
serialize as row-major [re, im] pairs.  The tree section is read off the
history tree's rows (:meth:`HistoryTree.rows`); no node object is built.

Exit codes: 0 success, 1 configuration problems, 2 numeric failures
(including a commutation abort), 3 resource caps.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
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

@dataclass
class RunConfig:
    """Validated run description; every field but ``out`` and ``policy`` is echoed."""

    scenario: str | None = None
    scenario_params: dict = field(default_factory=dict)
    net: dict | None = None
    initial_state: dict | None = None
    mode: str = "enumerate"
    samples: int = 1000
    seed: object = None
    epsilon: float = 0.05
    commutation: str = "warn"
    record: dict = field(default_factory=dict)
    format: str = "structured"
    out: str | None = None
    policy: NumericPolicy = DEFAULT_POLICY

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("out", "policy")}


def _validate_config(raw: Mapping[str, Any]) -> RunConfig:
    problems = []
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        problems.append(f"unknown fields {sorted(unknown)}")
    cfg = RunConfig()
    if "scenario" in raw and raw["scenario"] is not None:
        if not isinstance(raw["scenario"], str):
            problems.append("scenario: must be a string")
        elif raw["scenario"] not in SCENARIO_BUILDERS:
            problems.append(f"scenario: unknown name {raw['scenario']!r}; "
                            f"known: {sorted(SCENARIO_BUILDERS)}")
        else:
            cfg.scenario = raw["scenario"]
    for key in ("scenario_params", "net", "record"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], dict):
                problems.append(f"{key}: must be an object")
                continue
            setattr(cfg, key, dict(raw[key]))
            extra = set(raw[key]) - _OBJECT_KEYS[key] if key in _OBJECT_KEYS else ()
            if extra:
                problems.append(f"{key}: unknown keys {sorted(extra)}")
    if cfg.scenario and cfg.net:
        problems.append("scenario and net are mutually exclusive")
    if not cfg.scenario and not cfg.net:
        problems.append("one of scenario or net is required")
    if "initial_state" in raw and raw["initial_state"] is not None:
        if not isinstance(raw["initial_state"], dict) or "kind" not in raw["initial_state"]:
            problems.append("initial_state: must be an object with a 'kind'")
        else:
            cfg.initial_state = dict(raw["initial_state"])
    for key, choices in (("mode", _MODES), ("commutation", _COMMUTATION),
                         ("format", _FORMATS)):
        value = raw.get(key, getattr(cfg, key))
        if value in choices:
            setattr(cfg, key, value)
        else:
            problems.append(f"{key}: {value!r} is not one of {choices}")
    if raw.get("samples") is not None:
        if is_integer_at_least(raw["samples"], 1) and raw["samples"] <= MAX_SAMPLES:
            cfg.samples = raw["samples"]
        else:
            problems.append(f"samples: {raw['samples']!r} is not a count from 1 to {MAX_SAMPLES}")
    seed = raw.get("seed")
    if seed is None or is_integer_at_least(seed, 0):
        cfg.seed = seed
    else:
        problems.append(f"seed: {seed!r} is not a non-negative integer or null")
    if raw.get("epsilon") is not None:
        if not is_real_number(raw["epsilon"]):
            problems.append(f"epsilon: {raw['epsilon']!r} is not a number")
        elif not 0.0 < raw["epsilon"] < 1.0:
            problems.append("epsilon: must lie strictly between 0 and 1")
        else:
            cfg.epsilon = float(raw["epsilon"])
    if "out" in raw and raw["out"] is not None:
        if not isinstance(raw["out"], str):
            problems.append("out: must be a path string")
        else:
            cfg.out = raw["out"]
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
                    cfg.policy = NumericPolicy(**{**DEFAULT_POLICY.as_dict(), **raw["policy"]})
                except ValueError as exc:
                    problems.append(f"policy: {exc}")
    if cfg.epsilon < cfg.policy.eps_floor:
        problems.append(f"epsilon: {cfg.epsilon!r} is below the resolution floor "
                        f"eps_floor={cfg.policy.eps_floor!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def load_config(path: str | None, overrides: Mapping[str, Any]) -> RunConfig:
    """Read the JSON config (if any) and apply command-line overrides."""
    raw: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    return _validate_config(raw)


# ---------------------------------------------------------------------------
# serialization helpers


def _pairs(mat: np.ndarray) -> list:
    """Row-major [re, im] pairs for a complex matrix."""
    mat = np.asarray(mat)
    return np.stack([mat.real, mat.imag], -1).tolist()


def _state_from_config(desc: Mapping[str, Any] | None, dim: int,
                       policy: NumericPolicy) -> State:
    kind = "maximally-mixed" if desc is None else desc.get("kind")
    if kind not in ("maximally-mixed", "diagonal", "vector", "matrix"):
        raise ConfigError(f"initial_state kind {kind!r} is not recognized")
    try:
        if kind == "maximally-mixed":
            state = State.maximally_mixed(dim, policy=policy)
        elif kind == "diagonal":
            state = State.diagonal(desc["weights"], policy=policy)
        elif kind == "vector":
            vec = [complex(p[0], p[1]) for p in desc["entries"]]
            state = State.from_vector(vec, policy=policy)
        else:
            rows = [[complex(p[0], p[1]) for p in row] for row in desc["entries"]]
            state = State(rows, policy=policy)
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"initial_state is malformed: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"initial_state is not a valid state: {exc}") from exc
    if state.dim != dim:
        raise ConfigError(f"initial_state has dimension {state.dim}, but the net has {dim}")
    return state


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
    """Pause the cyclic garbage collector while a report's containers are built.

    The tree section and the report text hold no reference cycles, but
    each collection walks every live container: on a tree of 5e5 rows,
    collecting as the dicts and lists pile up took longer than the build.
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
    row order, which is the order of ``tree.root``.  A row's [tau, x,
    label] path, and the json text of that path (the leaf rows' sort key),
    are its parent's and one step.  A detection row is one block of rows:
    the nodes one (leaf, point) made, and the largest outcome count among
    them.  No node object is built.
    """
    sums, blocks = tree.rows()
    nodes = [{"point": None, "label": None, "cond_prob": 1.0, "cum_prob": 1.0,
              "event_dim": None, "children_prob_sum": sums[0], "children": []}]
    paths: list[list] = [[]]
    keys = ["[]"]
    parents: set[int] = set()
    detections = []
    for b in blocks:
        if not b.parent:
            continue
        tau, x = b.point
        steps = [json.dumps([tau, x, label]) for label in b.labels]
        for p, k, w, cum, dim in zip(b.parent, b.outcome, b.cond_prob, b.cum_prob,
                                     b.event_dim):
            label = b.labels[k]
            node = {"point": [tau, x], "label": label, "cond_prob": w, "cum_prob": cum,
                    "event_dim": dim, "children_prob_sum": sums[len(nodes)], "children": []}
            nodes[p]["children"].append(node)
            nodes.append(node)
            paths.append(paths[p] + [[tau, x, label]])
            key = keys[p]
            keys.append(f"{key[:-1]}, {steps[k]}]" if p else f"[{steps[k]}]")
        parents.update(b.parent)
        detections.append({"leaf": b.leaf_index, "point": [tau, x], "nodes": len(b.parent),
                           "event_dim": max(b.event_dim)})
    leaves = sorted((r for r in range(len(nodes)) if r not in parents), key=keys.__getitem__)
    section = {"root": nodes[0], "n_leaves": len(leaves), "pruned_mass": tree.pruned_mass,
               "leaves": [{"path": paths[r], "probability": nodes[r]["cum_prob"]}
                          for r in leaves]}
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
        scenario = build_scenario(cfg.scenario, cfg.scenario_params, policy=policy)
        net = scenario.net
        foliation = scenario.foliation
        initial = (scenario.initial if cfg.initial_state is None
                   else _state_from_config(cfg.initial_state, net.dim, policy))
        imposed = scenario.imposed
    else:
        net = _net_from_config(cfg.net, policy)
        foliation = foliate(net.lattice)
        initial = _state_from_config(cfg.initial_state, net.dim, policy)
        imposed = None
    timings["setup"] = time.perf_counter() - t0

    report: dict[str, Any] = {
        "tool": "eventnet",
        "config": cfg.echo(),
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
    report["initial_state"] = _pairs(initial.rho) if net.dim <= 64 else None

    t0 = time.perf_counter()
    report["nesting"] = _nesting_section(net, policy)
    timings["nesting"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report["commutation"] = commutation = {"policy": cfg.commutation, "max_norm": 0.0,
                                           "entries": []}
    if cfg.mode == "enumerate":
        tree = enumerate_tree(net, foliation, initial, policy=policy, imposed=imposed,
                              commutation=cfg.commutation)
        report["tree"], report["detections"] = _tree_section(tree)
        report["spectrum_dims"] = tree.spectrum_dims
        commutation["max_norm"] = tree.max_commutator
        commutation["entries"] = [{"leaf": li, "p": list(pa), "q": list(pb), "norm": n}
                                  for li, pa, pb, n in tree.commutation_norms]
    elif cfg.mode == "sample":
        summary = sample_paths(net, foliation, initial, cfg.samples, cfg.seed,
                               policy=policy, imposed=imposed,
                               commutation=cfg.commutation)
        rows = [{"path": [list(step) for step in key], "count": count,
                 "frequency": count / summary.n_samples}
                for key, count in summary.counts.items()]
        rows.sort(key=lambda r: json.dumps(r["path"]))
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
        point = Point(*pt_raw)
        rep = recording_check(net, point, initial, scenario.quantities[qname],
                              cfg.epsilon, policy=policy)
        report["recording"] = dict(vars(rep))
        report["spectrum_dims"] = []
    timings["run"] = time.perf_counter() - t0

    if scenario is not None and scenario.expected and cfg.initial_state is None:
        t0 = time.perf_counter()
        report["expected"] = [dict(vars(r))
                              for r in evaluate_expected(scenario, policy=policy)]
        timings["expected"] = time.perf_counter() - t0
    return report, timings


@_gc_paused()
def serialize_report(report: dict) -> str:
    """Canonical bytes: ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``.

    Written by one recursive pass that appends to a list (:class:`_Writer`),
    since with an indent set ``json.dumps`` runs its pure-Python encoder,
    one generator per nesting level.  The output is the same text.  A value
    json cannot hold raises ``TypeError``, and so does a dict key that is
    not a string, which ``json.dumps`` would write as one; no report holds
    such a key.
    """
    writer = _Writer()
    writer.write(report, 0)
    out = writer.out
    del writer  # its memos are freed before the pieces are joined
    out.append("\n")
    return "".join(out)


def _float_text(value: float, floats: dict) -> str:
    """json's text for a float; ``floats`` memoizes nonzero finite values by value."""
    text = floats.get(value)
    if text is None:
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        text = float.__repr__(value)
        if value:  # 0.0 == -0.0 would share one entry
            floats[value] = text
    return text


def _subclass_text(value, floats: dict) -> str | None:
    """json's text for a str, int or float subclass; None for a list, tuple or dict.

    The types are tested in json's own order, so ``np.float64`` is a float;
    exact types never get here (see :class:`_Writer`).
    """
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value, floats)
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Writer:
    """The text of one report, appended to ``out`` in one recursive pass.

    ``lines[d]`` is the newline and indent of depth ``d``, bare and after a
    comma, so all containers at one depth append the same separator
    strings; a dict's key heads are kept per depth and key tuple, and a
    container writes the scalars it holds itself.

    A list that is a regular nested array of exact, finite floats (every
    row a non-empty list of one length, down to the floats) is written in
    one step: one ``%s`` template, built for its shape and depth, filled
    with the floats' texts.  An array's texts are kept under its bytes, so
    an array written twice, at any depth, is formatted once; bytes tell 0.0
    from -0.0, which compare equal.  Every other value takes the general
    path.
    """

    def __init__(self):
        self.out: list[str] = []
        self.lines = [("\n", ",\n")]
        self.floats: dict[float, str] = {}
        self.arrays: dict[bytes, tuple[str, ...]] = {}
        self.heads: dict[tuple, tuple[list, list[str]]] = {}
        # exact types only, so a bool is never an int; subclasses go to _subclass_text
        self.scalars = {str: _escape, float: partial(_float_text, floats=self.floats),
                        int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
                        type(None): lambda _: "null"}

    def write(self, value, depth: int) -> None:
        """Append the text of ``value``, nested ``depth`` containers deep."""
        out, lines = self.out, self.lines
        kind = type(value)
        fmt = self.scalars.get(kind)
        if fmt is not None:
            text = fmt(value)
        elif kind is list:
            text = self._float_array(value, depth) if value else "[]"
        elif kind is dict:
            text = None if value else "{}"
        else:
            text = _subclass_text(value, self.floats)
            if text is None and not value:
                text = "{}" if isinstance(value, dict) else "[]"
        if text is not None:
            out.append(text)
            return
        sep, comma = self._line(depth + 1)
        scalars = self.scalars
        if isinstance(value, dict):
            keys, heads = self._heads(value, depth)
            out.append("{")
            for key, head in zip(keys, heads):
                item = value[key]
                fmt = scalars.get(type(item))
                if fmt is None:
                    out.append(head)
                    self.write(item, depth + 1)
                else:
                    out.append(head + fmt(item))
            out.append(lines[depth][0] + "}")
        else:
            out.append("[")
            for item in value:
                fmt = scalars.get(type(item))
                if fmt is None:
                    out.append(sep)
                    self.write(item, depth + 1)
                else:
                    out.append(sep + fmt(item))
                sep = comma
            out.append(lines[depth][0] + "]")

    def _line(self, depth: int) -> tuple[str, str]:
        """The newline and indent of ``depth``, bare and after a comma."""
        lines = self.lines
        while len(lines) <= depth:
            line = lines[-1][0] + "  "
            lines.append((line, "," + line))
        return lines[depth]

    def _heads(self, value: dict, depth: int) -> tuple[list, list[str]]:
        """The dict's keys in sorted order, each with its separator, text and colon."""
        found = self.heads.get((depth, tuple(value)))
        if found is None:
            sep, comma = self.lines[depth + 1]
            keys = sorted(value)
            heads = [(comma if i else sep) + _escape(key) + ": "  # TypeError unless a str
                     for i, key in enumerate(keys)]
            found = self.heads[(depth, tuple(value))] = keys, heads
        return found

    def _float_array(self, value: list, depth: int) -> str | None:
        """The text of a regular nested array of exact, finite floats; None for other lists."""
        shape, first = [], value
        while type(first) is list and first:
            shape.append(len(first))
            first = first[0]
        if type(first) is not float:
            return None
        flat = value
        for n in shape[1:]:
            if set(map(type, flat)) != {list} or set(map(len, flat)) != {n}:
                return None
            flat = list(chain.from_iterable(flat))
        if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
            return None
        bits = np.array(flat).tobytes()
        texts = self.arrays.get(bits)
        if texts is None:
            texts = self.arrays[bits] = tuple(map(float.__repr__, flat))
        template = "%s"
        for d in reversed(range(depth, depth + len(shape))):
            sep, comma = self._line(d + 1)
            template = f"[{sep}{comma.join([template] * shape[d - depth])}{self.lines[d][0]}]"
        return template % texts


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eventnet",
        description="Run an operator-algebra event simulation and emit a report.")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--scenario", choices=sorted(SCENARIO_BUILDERS),
                        help="shipped scenario name")
    parser.add_argument("--mode", choices=_MODES, help="what to compute")
    parser.add_argument("--samples", type=int, help="sample count for sample mode")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, dest="fmt",
                        help="report format")
    args = parser.parse_args(argv)
    overrides = {"scenario": args.scenario, "mode": args.mode,
                 "samples": args.samples, "seed": args.seed, "out": args.out,
                 "format": args.fmt}
    try:
        cfg = load_config(args.config, overrides)
        report, timings = run(cfg)
    except EventNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, CapExceededError) else 2
    try:
        text = emit_report(report, cfg.format, cfg.out)
    except OSError as exc:
        print(f"error: cannot write report to {cfg.out}: {exc}", file=sys.stderr)
        return 1
    for phase, secs in timings.items():
        print(f"timing {phase}: {secs:.3f}s", file=sys.stderr)
    if text is not None:
        sys.stdout.write(text)
    else:
        print(f"wrote {cfg.format} report to {cfg.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
