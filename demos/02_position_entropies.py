"""Closed-form entropic moments and entropies in position space.

For integer order the moment W = integral rho^alpha dx has an exact finite
form built from a Hermite-power expansion; Rényi and Tsallis entropies
follow from log W.  The demo reproduces a few published values, shows the
analytic/quadrature agreement, and traces the subtle dip of the entropy in
lam for highly excited states.
"""

import numpy as np

from darboux3 import ModelParams, entropic_moment, entropic_moment_numeric, entropy

harmonic = ModelParams(1.0, 0.0)
deformed = ModelParams(1.0, 0.4)

print("Renyi entropy, position space, order 2:")
for n in (0, 1, 5, 20):
    print(
        f"  n={n:2d}: harmonic {entropy(harmonic, n, 2, 'position', 'renyi'):.3f}   "
        f"lam=0.4 {entropy(deformed, n, 2, 'position', 'renyi'):.3f}"
    )

print("\nTsallis entropy approaches its 1/(alpha-1) bound as states delocalise:")
for n in (0, 5, 20):
    t2 = entropy(deformed, n, 2, "position", "tsallis")
    print(f"  n={n:2d}: T2(lam=0.4) = {t2:.4f}  (bound 1)")

print("\ndisequilibrium W2 and the cross-check against direct quadrature:")
for n in (0, 3, 8):
    analytic = entropic_moment(deformed, n, 2)
    numeric = entropic_moment_numeric(deformed, n, 2.0, "position")
    print(f"  n={n}: analytic {analytic:.12f}  quadrature {numeric:.12f}")

print("\nentropic moments for non-integer order go through quadrature:")
for alpha in (0.5, 0.8, 1.75):
    w = entropic_moment_numeric(deformed, 2, alpha, "position")
    print(f"  alpha={alpha}: W = {w:.10f}")

print("\nthe lam-dip of highly excited states (order 2):")
lams = np.linspace(0.0, 0.12, 25)
for n in (13, 20):
    vals = [entropy(ModelParams(1.0, float(l)), n, 2, "position", "renyi") for l in lams]
    k = int(np.argmin(np.array(vals)[8:])) + 8
    print(
        f"  n={n}: R(0) = {vals[0]:.4f}, local min {vals[k]:.4f} at lam = {lams[k]:.3f},"
        f" then rising again"
    )

w3 = entropic_moment(deformed, 20, 3)
print(f"\nclosed forms stay finite far beyond double-overflow territory: W3(n=20) = {w3:.3e}")
