#!/usr/bin/env python3
"""Stabilizer-code analysis: validation, distance, correctable regions,
and the encoding isometry of the five-qubit code."""

from itertools import combinations

import numpy as np

from locbound import (
    correctable_region,
    encoding_isometry,
    five_qubit_code,
    four_two_two_code,
    min_distance,
    repetition_code,
    vn_entropy,
)

codes = ((five_qubit_code(), "five-qubit"),
         (four_two_two_code(), "[[4,2,2]]"),
         (repetition_code(), "3-qubit repetition"))
for code, label in codes:
    d = min_distance(code)
    print(f"{label}: n={code.n} k={code.k} d={d}")

print("\n=== correctable regions of the five-qubit code ===")
code = five_qubit_code()
for size in (1, 2, 3):
    regions = list(combinations(range(5), size))
    good = sum(correctable_region(code, r) for r in regions)
    print(f"  size {size}: {good}/{len(regions)} correctable")

print("\n=== the distance is the smallest uncorrectable region ===")
for other, label in codes:
    d = min_distance(other).distance
    below = all(correctable_region(other, r) for r in combinations(range(other.n), d - 1))
    bad = next(r for r in combinations(range(other.n), d)
               if not correctable_region(other, r))
    print(f"  {label}: all {d - 1}-qubit regions correctable: {below};"
          f" first uncorrectable {d}-qubit region {bad}")

print("\n=== encoding isometry and the perfect-code property ===")
iso = encoding_isometry(code)
print("U^dag U defect:", np.abs(iso.conj().T @ iso - np.eye(2)).max())
phi = np.eye(2, dtype=complex).ravel() / np.sqrt(2)
vec = (iso @ phi.reshape(2, 2).T).T.ravel()
from locbound import DensityMatrix, RegisterLayout

layout = RegisterLayout.of(("R", 2), *[(f"q{i}", 2) for i in range(5)])
encoded = DensityMatrix.from_vector(layout, vec)
entropies = {r: vn_entropy(encoded, [f"q{q}" for q in r])
             for r in combinations(range(5), 2)}
print("S(region) over all 2-qubit regions of the encoded Bell pair:")
print("  values:", sorted(set(round(v, 9) for v in entropies.values())))
