"""Regenerate references.json: the outputs the benchmark checks against,
computed by the library at the commit that pins them.

    PYTHONPATH=src python3 perfbench/pin.py

Only re-pin when a change is meant to alter these numbers, and say why.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import locbound as lb
import workloads as w
from locbound import verify as ver


def main() -> None:
    encoder = lb.encoding_isometry(lb.five_qubit_code())
    refs = {
        "module-dense": {
            f"p={p}": w.module_delta(w.mirror_module(w.ModuleDense.shape, np.random.default_rng(0),
                                                     p, encoder))
            for p in w.P_CATALOGUE
        },
        "module-branching": {
            f"J={j} p={p}": w.module_delta(ver.repetition_module(p, rounds=j))
            for j in w.ModuleBranching.rounds for p in w.P_CATALOGUE
        },
        "code-geometry": {},
    }
    for name in w.CODES:
        out = w.run_code(name, [])
        refs["code-geometry"][f"code:{name}"] = {
            k: out[k] for k in ("k", "d", "ree_lower_sum", "depth_floor")}
    for shape in w.GRIDS:
        refs["code-geometry"][f"grid:{w.grid_key(shape)}"] = w.run_grid(shape)
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
