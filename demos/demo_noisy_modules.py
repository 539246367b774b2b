#!/usr/bin/env python3
"""Noisy error-correction modules: exact channel simulation, logical error
rates, and consistency with the memory-overhead floor."""

import numpy as np

from locbound import (BoundInputs, Circuit, EcModule, apply_layer, logical_error_rate,
                      overhead_floor, simulate_module)
from locbound.verify import repetition_module, trivial_module

print("=== trivial one-qubit module: delta = 3p/4 exactly ===")
for p in (0.1, 0.25, 0.5):
    delta = logical_error_rate(trivial_module(p))
    print(f"  p={p:5.2f}: delta={delta:.12f}  3p/4={0.75 * p:.12f}")

print("\n=== three-qubit repetition module (measure, correct, reset) ===")
for p in (0.02, 0.05, 0.1):
    for rounds in (1, 2):
        mod = repetition_module(p, rounds=rounds)
        delta = logical_error_rate(mod)
        print(f"  p={p:5.2f} rounds={rounds}: m={mod.m} depth={mod.depth} "
              f"delta={delta:.6f}")

print("\n=== classical record branches of one noisy round ===")
# apply_layer alone keeps every write: a record is the tuple of (key,
# outcome) pairs written so far. Run one round's noise (a module with no
# gates) and then its layers up to the syndrome measurement.
mod = repetition_module(0.1, rounds=1)
idle = EcModule(mod.graph, rounds=[Circuit(mod.graph, [])], data_qubits=mod.data_qubits,
                encoder=mod.encoder, p=mod.p)
out = simulate_module(idle)
for layer in mod.rounds[0].layers[:-1]:
    out = apply_layer(out, layer)
# a branch matrix is unnormalized: its trace is the branch weight; ties at
# the printed precision go by record, so last-ulp differences cannot reorder
weighted = sorted((-round(mat.trace().real, 4), record) for record, mat in out.branches)
for neg_weight, record in weighted[:4]:
    print(f"  weight {-neg_weight:.4f}  record {record}  syndrome {dict(record)}")
# simulate_module forgets an outcome once no later gate reads it, so the
# whole module, corrections included, ends in one branch with record ()
print("  simulate_module records:", [record for record, _ in simulate_module(mod).branches])

print("\n=== erased-round variant: the region really is forgotten ===")
erased = simulate_module(mod, erased=(("d0", "d1"), 0))
red = erased.average_state().reduced(["d0", "d1"])
print("reduced state on the erased pair:\n", np.round(red.matrix.real, 6))

print("\n=== overhead floor consistency ===")
for p in (0.1, 0.25):
    mod = trivial_module(p)
    delta = logical_error_rate(mod)
    report = overhead_floor(BoundInputs(m=mod.m, k=mod.k, depth=float(mod.depth),
                                        p=p, delta=delta, dim=2))
    print(f"  p={p}: measured delta={delta:.4f}, floor={report.value:.4f}, "
          f"m/k={mod.m / mod.k}, satisfiable={report.satisfiable}")
