"""Momentum space: numerical Fourier transform and entropies.

No closed form exists for the transform of the deformed states, so the
momentum density is tabulated on structure-aware quadrature nodes (panels
split at the transform zeros, cut where the transform's tail law puts it).
Increasing lam localises the momentum density and lowers its entropies;
for large lam two side lobes appear.
"""

import numpy as np

from darboux3 import ModelParams, entropy, momentum_profile, shannon_numeric

print("momentum Renyi/Tsallis entropies at order 2 vs lam (n = 0):")
for lam in (0.0, 0.25, 0.5, 1.0, 1.5):
    p = ModelParams(1.0, lam)
    print(
        f"  lam={lam:4}: R = {entropy(p, 0, 2.0, 'momentum', 'renyi'):.4f}   "
        f"T = {entropy(p, 0, 2.0, 'momentum', 'tsallis'):.4f}"
    )

print("\nharmonic states are Fourier self-dual (position == momentum):")
h = ModelParams(1.0, 0.0)
for n in (0, 3):
    d = abs(entropy(h, n, 0.8, "position", "renyi") - entropy(h, n, 0.8, "momentum", "renyi"))
    print(f"  n={n}: |difference| = {d:.2e}")

print("\nShannon limits bracket correctly:")
p = ModelParams(1.0, 0.4)
s = shannon_numeric(p, 2, "momentum")
print(f"  S = {s:.6f} in [{entropy(p, 2, 1.0001, 'momentum', 'renyi'):.6f}, "
      f"{entropy(p, 2, 0.9999, 'momentum', 'renyi'):.6f}]")

print("\nParseval check and the side lobes of the strongly nonlinear regime:")
for lam in (0.4, 100.0):
    prof = momentum_profile(ModelParams(1.0, lam), 0)
    norm = 2.0 * float(prof.weights @ prof.gamma)
    g, q = prof.gamma, prof.p
    interior = (g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])
    lobes = int(np.sum(interior & (q[1:-1] > 1e-6)))
    print(f"  lam={lam:6}: integral gamma = {norm:.12f}, side maxima (p > 0): {lobes}")

print("\nthe momentum entropy peaks at a finite n when lam > 0:")
vals = [entropy(ModelParams(1.0, 0.4), n, 2.0, "momentum", "renyi") for n in range(9)]
for n, v in enumerate(vals):
    marker = "  <- peak" if v == max(vals) else ""
    print(f"  n={n}: {v:.4f}{marker}")
