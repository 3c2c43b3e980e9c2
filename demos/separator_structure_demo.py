"""
Separator structure around a cycle
==================================

On a strip of the square of the double ray (integers, edges between
numbers at distance 1 or 2), one search from the strip ends finds the
minimal subset of a central triangle's neighborhood that separates the
triangle from them, and splits it into per-end parts around the one finite
component (``ray_decomposition``).
"""

from clawham import CycleEmbedding, FiniteGraph
from clawham.separators import check_complete_neighborhood, ray_decomposition, separates

LO, HI = -10, 10
ids = {i: i - LO for i in range(LO, HI + 1)}
back = {v: i for i, v in ids.items()}
edges = [(ids[i], ids[i + d]) for i in range(LO, HI + 1) for d in (1, 2) if i + d <= HI]
g = FiniteGraph(ids.values(), edges)

cycle = CycleEmbedding([ids[0], ids[1], ids[2]])
boundary = [ids[i] for i in (LO, LO + 1, HI - 1, HI)]
print(f"strip {LO}..{HI}, cycle on {{0, 1, 2}}, boundary = ends of the strip")

dec = ray_decomposition(g, cycle, boundary)
sep = dec.separator
print("minimal separator:", sorted(back[v] for v in sep))
for v in sep:
    assert not separates(g, set(sep) - {v}, cycle.order, boundary)
print("dropping any single vertex reconnects the cycle to the boundary: checked")

print("\nfinite component:", [back[v] for v in dec.finite_component])
for i, (part, comp) in enumerate(zip(dec.parts, dec.infinite_components), start=1):
    print(f"part {i}: separator vertices {[back[v] for v in part]} "
          f"guarding component {[back[v] for v in comp]}")

print("\nneighborhoods of separator vertices inside each side are complete:")
for s in dec.separator:
    sides = [dec.finite_component] + list(dec.infinite_components)
    flags = [check_complete_neighborhood(g, s, side) for side in sides]
    print(f"  vertex {back[s]}: {flags}")
