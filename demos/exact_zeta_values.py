"""Walk the antiderivative ladder and read off exact even zeta values.

Each rung antidifferentiates the previous closed-form polynomial on
(0, 2*pi) and pins the new integration constant by matching period means.
Even rungs evaluated at the origin yield zeta(2k) as exact rationals
times pi^2k; the Bernoulli closed form provides an independent check.
"""

from fractions import Fraction

from zetacomb import bernoulli_oracle, ladder_states, zeta_even

print("Closed forms Q_k on (0, 2*pi), first six rungs:")
for state in ladder_states(6):
    print(f"  k={state.order}:  Q = {state}")

print()
print("Even-order endpoint values, ladder vs Bernoulli oracle:")
print(f"  {'2k':>3}  {'zeta(2k)':<22} {'oracle':<22} {'float':<22}")
for two_k in range(2, 18, 2):
    z = zeta_even(two_k)
    b = bernoulli_oracle(two_k)
    tag = "ok" if z.value == b.value else "MISMATCH"
    print(f"  {two_k:>3}  {str(z):<22} {str(b):<22} {z.to_float():<20.15f} {tag}")

print()
print("Sanity check against the direct series for zeta(2):")
partial = sum(Fraction(1, n * n) for n in range(1, 2001))
print(f"  exact coefficient of pi^2: {zeta_even(2).coefficient}")
print(f"  partial sum, 2000 terms:   {float(partial):.12f}")
print(f"  exact value as float:      {zeta_even(2).to_float():.12f}")
print("  the series trails by about 1/N, the ladder value is exact")
