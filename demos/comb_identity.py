"""Compare the two routes for pairing a test function with the Dirac comb.

Route one truncates the cosine expansion at N modes; it sums them as one
periodic trapezoid sum of the 2*pi-periodized function against the
order-N kernel.
Route two goes straight to the lattice: 2*pi times the sum of the
damped test function over multiples of 2*pi.  The truncated route
converges to the lattice value as the mode count grows.  On the plateau a
third number joins them at the last N: the action of the windowed
kernel, which converges to 2*pi*phi(0).
"""

import math

from zetacomb import bump_plateau, delta0_comb_action, delta0_partial_action, deltaN_action, gaussian_bump

print("Wide plateau bump covering the origin and nothing else:")
phi = bump_plateau(math.pi, 1.25 * math.pi)
comb = delta0_comb_action(phi)
print(f"  lattice route: {comb:.12f}   (2*pi = {2 * math.pi:.12f})")
for n in (0, 5, 25, 100):
    partial = delta0_partial_action(phi, n, 1e-10)
    print(f"  N={n:>3} modes:  partial = {partial:.12f}   gap = {abs(partial - comb):.3e}")
action = deltaN_action(phi, n, 1e-10)
point = 2 * math.pi * phi(0.0)
print(f"  N={n:>3} kernel action = {action:.12f}   partial = {partial:.12f}   2*pi*phi(0) = {point:.12f}")

print()
print("Narrow bump at the origin:")
phi = gaussian_bump(0.0, 1.0)
comb = delta0_comb_action(phi)
print(f"  lattice route: {comb:.12f}")
for n in (0, 5, 25, 100):
    partial = delta0_partial_action(phi, n, 1e-10)
    print(f"  N={n:>3} modes:  partial = {partial:.12f}   gap = {abs(partial - comb):.3e}")

print()
print("Bump shifted to 11*pi, between lattice points:")
phi = gaussian_bump(11.0 * math.pi, 1.0)
comb = delta0_comb_action(phi)
print(f"  lattice route: {comb}   (no multiple of 2*pi meets the support)")
for n in (5, 25, 100):
    partial = delta0_partial_action(phi, n, 1e-10)
    print(f"  N={n:>3} modes:  partial = {partial:+.3e}")
