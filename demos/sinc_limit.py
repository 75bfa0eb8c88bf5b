"""Track the truncated sinc integral as it oscillates down onto pi.

Integrating sin(x)/x over [-(N+1/2)*pi, (N+1/2)*pi] gives a sequence
that brackets pi in alternating fashion: above for odd N, below for
even N.  The distance to pi shrinks like the area of the last
half-lobe, about 2/((N+1/2)*pi).
"""

import math

from zetacomb import sinc_table

print("Truncated integrals and their distance to pi:")
print(f"  {'N':>4}  {'integral':<20} {'side':<6} {'|gap|':<12} {'2/((N+1/2)pi)':<14} panels")
# One adaptive pass gives every N up to 100: each row is a prefix of the next.
table = sinc_table(100, 1e-11)
for n in (0, 1, 2, 3, 5, 10, 20, 50, 100):
    result = table[n]
    gap = result.value - math.pi
    side = "above" if gap > 0 else "below"
    bound = 2.0 / ((n + 0.5) * math.pi)
    print(
        f"  {n:>4}  {result.value:<20.15f} {side:<6} {abs(gap):<12.3e} "
        f"{bound:<14.3e} {result.panels_used}"
    )

print()
print("Parity of N decides the side: each added lobe flips the sign of the")
print("correction, and the lobes shrink monotonically, so the sequence")
print("closes in on pi from alternating sides.")
