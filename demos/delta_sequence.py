"""Show the windowed kernels acting like a delta sequence on smooth bumps.

Pairing the order-N kernel with a compactly supported test function
drives the integral toward 2*pi times the value at the origin.  Four
situations are shown: a plateau bump that is exactly 1 on the whole
window, a narrow bump centered at zero, the same bump computed a second
way through sigma(x) = (x/2)/sin(x/2), and a bump shifted away from the
origin whose pairing decays to nothing.
"""

import math

from zetacomb import bump_plateau, deltaN_action, gaussian_bump, integrate_adaptive, phi_tilde

TWO_PI = 2.0 * math.pi
ORDERS = (5, 20, 80, 320)

print("Plateau bump, flat and equal to 1 on the whole window [-pi, pi]:")
phi = bump_plateau(math.pi, 1.25 * math.pi)
print(f"  target 2*pi*phi(0) = {TWO_PI:.12f}")
for n in ORDERS:
    v = deltaN_action(phi, n, 1e-10)
    print(f"  N={n:>4}:  action = {v:.12f}   error = {abs(v - TWO_PI):.3e}")
print("  this is the kernel's own integral, 2*pi at every N: the normalization")
print("  identity, not convergence; only bumps that vary near 0 show that")

print()
print("Narrow bump at the origin, phi(0) = 1/e:")
phi = gaussian_bump(0.0, 1.0)
target = TWO_PI * phi(0.0)
print(f"  target 2*pi*phi(0) = {target:.12f}")
for n in ORDERS:
    v = deltaN_action(phi, n, 1e-10)
    print(f"  N={n:>4}:  action = {v:.12f}   error = {abs(v - target):.3e}")

print()
print("The same bump through sigma(x) = (x/2)/sin(x/2):")
print("  on [-pi, pi] the kernel times phi is 2*sin(u)/u * phi_tilde(u/(N+1/2)),")
print("  u = (N+1/2)*x, with phi_tilde = sigma*phi: a sinc integral, no 1/sin(x/2)")
tilde = phi_tilde(phi)
for n in ORDERS:
    w = n + 0.5

    # integrated in t = u + pi, so its panels are not the action's
    def f(t, w=w):
        u = t - math.pi
        return 2.0 * tilde(u / w) if u == 0.0 else 2.0 * math.sin(u) / u * tilde(u / w)

    v = deltaN_action(phi, n, 1e-10)
    via_sigma = integrate_adaptive(f, math.pi - w, math.pi + w, 1e-10, osc_freq=1.0).value
    print(f"  N={n:>4}:  action = {v:.12f}   sigma route = {via_sigma:.12f}"
          f"   diff = {abs(v - via_sigma):.1e}")

print()
print("Bump centered at 2.5, origin outside the support:")
phi = gaussian_bump(2.5, 1.0)
for n in ORDERS:
    v = deltaN_action(phi, n, 1e-10)
    print(f"  N={n:>4}:  action = {v:+.3e}")
print("  the target here is 0; the oscillation averages itself away")
