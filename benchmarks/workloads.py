"""The benchmark's workloads: seeded inputs and output checks.

Each workload is one JSON config for ``eventnet.cli`` made from the
workload seed, a correctness check on the report that ``cli.run`` returns,
and the deterministic work counts read off that report.  Inline configs
give ``initial_state`` as ``{"kind": "diagonal", "weights": [...]}``; the
key ``"values"`` shown in the package README is rejected by
``cli.load_config``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from eventnet import build_scenario, enumerate_tree

SAMPLE_DRAWS = 100_000
SAMPLE_SIGMAS = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[int], dict]
    checks: tuple[Callable[[dict, "Reference"], list[str]], ...]


@dataclass
class Reference:
    """Values computed once per run, outside the timed loop, for the checks."""

    exact: dict[str, float] | None = None   # path key -> exact Born probability
    tree_counts: dict[str, float] | None = None


# -- configs -----------------------------------------------------------------


def _cone_config(seed: int) -> dict:
    """2x3 cone net (6 cells, D=64) with a seeded full-rank state.

    The state is a fixed full-rank Ginibre draw turned by a seeded product
    of single-cell Haar unitaries.  Such a turn leaves every reduced
    spectrum, Born weight and commutator norm unchanged, so each seed gives
    other input numbers but the same tree, and the timing does not depend
    on how many branches a seed happens to keep.
    """
    cells, dim = 6, 2 ** 6
    base = np.random.default_rng(0)
    g = base.standard_normal((dim, dim)) + 1j * base.standard_normal((dim, dim))
    rng = np.random.default_rng(seed)
    u = np.eye(1, dtype=complex)
    for _ in range(cells):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    rho = u @ (g @ g.conj().T) @ u.conj().T
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return {"net": {"kind": "cone", "extent_tau": 2, "extent_x": 3, "cell_dim": 2},
            "initial_state": {"kind": "matrix", "entries": entries},
            "mode": "enumerate", "policy": {"prob_floor": 1e-3}}


def _chain_config(seed: int) -> dict:
    return {"scenario": "two-leaf-chain", "mode": "sample",
            "samples": SAMPLE_DRAWS, "seed": seed}


def _lattice_config(seed: int) -> dict:
    """20x20 full net on one 4-level cell; the seed orders the diagonal weights."""
    weights = [0.4, 0.3, 0.2, 0.1]
    order = np.random.default_rng(seed).permutation(len(weights))
    return {"net": {"kind": "full", "extent_tau": 20, "extent_x": 20,
                    "cell_dim": 4, "n_cells": 1},
            "initial_state": {"kind": "diagonal",
                              "weights": [weights[i] for i in order]},
            "mode": "enumerate"}


# -- checks ------------------------------------------------------------------


def _dead_leaves(root: dict) -> tuple[int, float]:
    """Count and mass of childless nodes whose every child was pruned."""
    count, mass, stack = 0, 0.0, [root]
    while stack:
        node = stack.pop()
        stack.extend(node["children"])
        if not node["children"] and node["children_prob_sum"] is not None:
            count += 1
            mass += node["cum_prob"]
    return count, mass


def _check_tree_mass(report: dict, ref: Reference) -> list[str]:
    """Every unit of Born mass is in one listed leaf or in ``pruned_mass``.

    When every child of a node falls below ``prob_floor``, ``enumerate_tree``
    adds the children's mass to ``pruned_mass`` and keeps the node, childless,
    so the report also lists it as a leaf with that mass.  The check counts
    that mass once: the listed leaves plus the pruned mass, less the mass of
    such nodes, must be 1 within ``tol_tree``.  A tree with no such nodes is
    held to the plain sum, and so is one that lists them as leaves but leaves
    their mass out of ``pruned_mass``.
    """
    tree = report["tree"]
    tol = report["policy"]["tol_tree"]
    problems = []
    if len(tree["leaves"]) != tree["n_leaves"]:
        problems.append(f"{len(tree['leaves'])} leaves listed, n_leaves is {tree['n_leaves']}")
    total = sum(leaf["probability"] for leaf in tree["leaves"]) + tree["pruned_mass"]
    _, dead_mass = _dead_leaves(tree["root"])
    if min(abs(total - 1.0), abs(total - dead_mass - 1.0)) > tol:
        problems.append(f"leaf probabilities + pruned mass = {total!r} (less {dead_mass!r} "
                        f"listed in both), off 1 by more than {tol}")
    return problems


def _check_no_future_pairs(report: dict, ref: Reference) -> list[str]:
    found = report["nesting"]["future_pairs"]
    return [] if found == 0 else [f"full net recovered {found} future pairs, expected 0"]


def _check_expected(report: dict, ref: Reference) -> list[str]:
    return [f"expected value {row['name']} failed" for row in report.get("expected", [])
            if not row["ok"]]


def _check_sample_frequencies(report: dict, ref: Reference) -> list[str]:
    samples = report["samples"]
    n = samples["n"]
    counts = {path_key(row["path"]): row["count"] for row in samples["paths"]}
    problems = []
    if sum(counts.values()) != n:
        problems.append(f"path counts sum to {sum(counts.values())}, not {n}")
    for key in sorted(set(counts) - set(ref.exact)):
        problems.append(f"sampled path {key} is not a leaf of the exact tree")
    for key, p in ref.exact.items():
        freq = counts.get(key, 0) / n
        sigma = math.sqrt(p * (1.0 - p) / n)
        if abs(freq - p) > SAMPLE_SIGMAS * sigma:
            problems.append(f"path {key}: frequency {freq} vs exact {p} "
                            f"is beyond {SAMPLE_SIGMAS:g} sigma ({sigma:.3e})")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("enum-cone-2x3",
             "dense D=64 branching with non-commuting spacelike families loads "
             "histories, opalg, linalg and events",
             _cone_config, (_check_tree_mass,)),
    Workload("sample-chain-100k",
             "100k draws over an 8-leaf tree: the per-draw loop of "
             "histories.sample_paths dominates",
             _chain_config, (_check_sample_frequencies, _check_expected)),
    Workload("lattice-full-20x20",
             "400 points on D=4: causal-order sweeps in spacetime and a 40 MB "
             "report built and serialized by cli",
             _lattice_config, (_check_tree_mass, _check_no_future_pairs)),
)}


# -- references and counts ---------------------------------------------------


def path_key(path) -> str:
    return json.dumps([[int(t), int(x), label] for t, x, label in path])


def tree_counts(tree) -> dict[str, float]:
    """Nodes below the root, leaves, dead leaves and pruned mass of a ``HistoryTree``."""
    nodes = leaves = dead = 0
    stack = list(tree.root.children)
    while stack:
        node = stack.pop()
        nodes += 1
        leaves += not node.children
        dead += not node.children and node.children_prob_sum is not None
        stack.extend(node.children)
    return {"histories.nodes": nodes, "histories.leaves": leaves,
            "histories.dead_leaves": dead, "histories.pruned_mass": tree.pruned_mass}


def make_reference(config: dict) -> Reference:
    """Exact Born probabilities of every path, for sample-mode configs."""
    if config.get("mode") != "sample":
        return Reference()
    sc = build_scenario(config["scenario"], config.get("scenario_params"))
    tree = enumerate_tree(sc.net, sc.foliation, sc.initial, imposed=sc.imposed)
    exact = {path_key((e.point.tau, e.point.x, e.label) for e in events): prob
             for events, prob in tree.leaf_paths()}
    return Reference(exact=exact, tree_counts=tree_counts(tree))


def report_counts(report: dict, text: str, ref: Reference) -> dict[str, float]:
    """Deterministic work counts of one run, read off its report."""
    counts: dict[str, float] = {
        "cli.report_bytes": len(text.encode("utf-8")),
        "spacetime.nesting_pairs": len(report.get("nesting", {}).get("pairs", ())),
    }
    if "tree" in report:
        nodes, stack = 0, list(report["tree"]["root"]["children"])
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node["children"])
        counts["histories.nodes"] = nodes
        counts["histories.leaves"] = report["tree"]["n_leaves"]
        counts["histories.dead_leaves"] = _dead_leaves(report["tree"]["root"])[0]
        counts["histories.pruned_mass"] = report["tree"]["pruned_mass"]
    if "samples" in report:
        # the report holds no tree: count the one sample_paths enumerates
        counts.update(ref.tree_counts)
        counts["sample.draws"] = report["samples"]["n"]
    return counts
