#!/usr/bin/env python3
"""Print the stable cohomotopy groups of k-fold connected sums of CP^n.

Walks every case the library resolves (3 <= n <= 7), shows the short
exact sequence behind each value and the filters that pinned the
splitting down, then shows the honestly-ambiguous n = 8 column.
"""

from cpsums.cohomotopy import build_sequence, pi_s0_connected_sum

K_RANGE = range(1, 7)

print("pi_s^0(#_k CP^n), computed from the skeletal short exact sequences")
print()
header = "k    " + "".join(f"n={n:<22}" for n in range(3, 8))
print(header)
print("-" * len(header))
for k in K_RANGE:
    row = [f"{k:<5}"]
    for n in range(3, 8):
        row.append(f"{str(pi_s0_connected_sum(k, n).group):<22}")
    print("".join(row))

print()
print("How one value is produced (k = 3, n = 7):")
result = pi_s0_connected_sum(3, 7)
seq = result.sequence
print(f"  sequence: {seq.provenance}")
print(f"  subterm:  {seq.sub}")
print(f"  quotient: {seq.quot}")
for f in result.filters:
    print(f"  filter:   {f.description}")
print(f"  resolved: {result.group}")

print()
print("The n = 8 sequence admits two middle terms and no splitting filter")
print("is available, so the library reports both instead of guessing:")
for k in (1, 2, 3):
    res = pi_s0_connected_sum(k, 8)
    names = ", ".join(str(g) for g in res.group)
    print(f"  k={k}: {{{names}}}")
