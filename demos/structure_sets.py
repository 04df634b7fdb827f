#!/usr/bin/env python3
"""Tangential structure sets and exotic-manifold counts.

Assembles the smooth and PL normal invariant groups, renders the
tangential surgery sequence for each dimension, and tabulates how many
manifolds are tangentially homotopy equivalent to #_k CP^n without
being homeomorphic to it.
"""

from cpsums.surgery import f_over_o, f_over_pl, pl_over_o, structure_set

K = 3

print(f"normal invariants of #_{K} CP^n")
print()
for n in range(3, 8):
    fo = f_over_o(K, n)
    fpl = f_over_pl(K, n)
    print(f"n={n}:  [X, F/O]  = {fo.group}")
    print(f"       [X, F/PL] = {fpl.group}")
    print(f"       [X, PL/O] = {pl_over_o(K, n)}")
print()

print("tangential surgery sequences:")
for n in range(3, 8):
    print()
    print(structure_set(K, n).render())

print()
print("exotic counts (tangentially equivalent, non-homeomorphic manifolds):")
print()
print("k     n=3   n=4    n=5    n=6   n=7")
for k in range(2, 9):
    cells = [f"{k:<6}"]
    for n in range(3, 8):
        count = structure_set(k, n).exotic_count
        cells.append(f"{count:<7}" if n in (4, 5) else f"{count:<6}")
    print("".join(cells))
print()
res = structure_set(4, 4)
print(f"derivation at (k=4, n=4): {res.derivation}")
res = structure_set(4, 5)
print(f"derivation at (k=4, n=5): {res.derivation}")
