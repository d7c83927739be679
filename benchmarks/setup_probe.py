"""Time eventnet's set-up for one config in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py CONFIG.json

Prints one JSON object: ``setup_s`` covers importing eventnet, loading and
validating the config with ``cli.load_config``, and building the net (or
scenario), its foliation and the initial ``State`` through the public API,
which is the work ``cli.run`` does before any branching.  numpy is
imported first, outside the timed region, since eventnet does not own it.
"""

import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (imported untimed on purpose)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(config_path: str) -> None:
    t0 = time.perf_counter()
    from eventnet import (CausalLattice, State, build_full_net, build_scenario,
                          build_tensor_net, cli, foliate)

    cfg = cli.load_config(config_path, {})
    policy = cfg.policy
    if cfg.scenario:
        scenario = build_scenario(cfg.scenario, cfg.scenario_params, policy=policy)
        initial = scenario.initial
    else:
        desc = cfg.net
        lattice = CausalLattice(int(desc.get("extent_tau", 1)), int(desc.get("extent_x", 1)),
                                int(desc.get("speed", 1)))
        cell_dim = int(desc.get("cell_dim", 2))
        if desc.get("kind", "cone") == "cone":
            net = build_tensor_net(lattice, cell_dim, policy=policy)
        else:
            net = build_full_net(lattice, cell_dim, int(desc.get("n_cells", 1)), policy=policy)
        foliate(net.lattice)
        state = cfg.initial_state
        if state["kind"] == "diagonal":
            initial = State.diagonal(state["weights"], policy=policy)
        else:
            initial = State([[complex(re, im) for re, im in row] for row in state["entries"]],
                            policy=policy)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "dim": initial.dim}))


if __name__ == "__main__":
    main(sys.argv[1])
