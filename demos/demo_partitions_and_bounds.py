#!/usr/bin/env python3
"""Grid partitions of embedded connectivity graphs and the explicit
depth/overhead floors they feed."""

from locbound import (
    BoundInputs,
    check_guarantees,
    encoding_depth_floor,
    encoding_depth_floor_geometric,
    grid_graph,
    grid_partition,
    kappa_default,
    overhead_floor,
    syndrome_depth_floor,
)

print("=== partition of a 16x16 grid ===")
graph, emb = grid_graph((16, 16))
for lam in (4, 16, 64):
    p = grid_partition(emb, graph, lam)
    g = check_guarantees(p, emb, lam, dense=True)
    print(f"  lam={lam:3d}: blocks={p.count:3d} worst size={g.worst_size:3d} "
          f"worst boundary={g.worst_boundary:3d} (budget {g.boundary_budget:.0f}) "
          f"count bound: {g.count_note}")
print("kappa(c=1, D=2) =", kappa_default(1.0, 2))

print("\n=== depth floors ===")
print("k=1, boundary sum 10:   ", encoding_depth_floor(1, [4, 3, 3]))
print("k=16, d=10, m=64, D=2:  ", encoding_depth_floor_geometric(16, 10, 64, 2))
print("syndrome (same inputs): ", syndrome_depth_floor(16, 10, 64, 2))

print("\n=== overhead floor across the noise-exponent range ===")
p = 0.25
print(f"{'f':>5} {'partition term':>15} {'noise term':>12} {'floor':>10} {'active':>10}")
for f in (1, 2, 4, 8, 16, 32, 64):
    report = overhead_floor(
        BoundInputs(m=1000, k=10, depth=1.0, p=p, delta=p ** f, dim=2)
    )
    inter = report.intermediates
    print(f"{f:5.0f} {inter['term_partition']:15.6f} {inter['term_noise']:12.6f} "
          f"{report.value:10.6f} {report.active_branch:>10}")
print("(the partition term grows like sqrt(f)/depth; the noise term decays as")
print(" p^(f/8), and the floor follows whichever branch is smaller)")
