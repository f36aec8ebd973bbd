"""The strongly nonlinear regime.

The density splits exactly into a harmonic-like part (weight f) and a
mass-induced part (weight 1 - f).  Once f is small the induced part alone
approximates the wave function, and its Fourier transform has a closed
form through the Dawson function.  The density's central maximum splits
into two at an exact threshold.
"""

import numpy as np

from darboux3 import (
    ModelParams,
    approx_momentum_closed,
    bifurcation_threshold,
    density_critical_points,
    g_series_transform,
    harmonic_weight,
    momentum_profile,
)

print("harmonic weight f vanishes as n or lam grow:")
print("lam \\ n " + "".join(f"{n:>9d}" for n in (0, 2, 5, 10)))
for lam in (0.1, 1.0, 10.0):
    row = "".join(f"{harmonic_weight(ModelParams(1.0, lam), n).f:9.4f}" for n in (0, 2, 5, 10))
    print(f"{lam:7.1f} {row}")

print("\nmaximum-splitting thresholds (omega = 1):")
print(f"  n=0: lam_c = {bifurcation_threshold(ModelParams(1.0, 0.0), 0):.10f}  (1/sqrt(2))")
print(f"  n=2: lam_c = {bifurcation_threshold(ModelParams(1.0, 0.0), 2):.10f}  (5/sqrt(26))")

print("\ncritical points of the n = 0 density across the threshold:")
for lam in (0.5, 0.7071067811865475, 1.0):
    pts = density_critical_points(ModelParams(1.0, lam), 0)
    desc = ", ".join(f"{c.kind}@{c.x:+.4f}" for c in pts)
    print(f"  lam={lam:.4f}: {desc}")

print("\nclosed-form momentum transform vs the exact density (lam = 10, n = 2):")
params = ModelParams(1.0, 10.0)
prof = momentum_profile(params, 2)
approx = np.abs(np.atleast_1d(approx_momentum_closed(params, 2, prof.p))) ** 2
l1 = float(prof.weights @ np.abs(prof.gamma - approx))
print(f"  relative L1 error = {l1:.4f} (f = {harmonic_weight(params, 2).f:.4f})")

print("\nthe error shrinks as lam grows (n = 0):")
for lam in (5.0, 20.0, 100.0):
    p = ModelParams(1.0, lam)
    prof = momentum_profile(p, 0)
    approx = np.abs(np.atleast_1d(approx_momentum_closed(p, 0, prof.p))) ** 2
    l1 = float(prof.weights @ np.abs(prof.gamma - approx))
    print(f"  lam={lam:6}: L1 = {l1:.5f}   f = {harmonic_weight(p, 0).f:.5f}")

print("\nthe transform of phi_n for any n extends the closed forms (here n = 5 and 12):")
ps = np.array([0.0, 0.4, 0.9])
for n in (5, 12):
    vals = np.atleast_1d(g_series_transform(ModelParams(1.0, 10.0), n, ps))
    for pv, v in zip(ps, vals):
        print(f"  p={pv}: FT phi_{n} = {v:.6e}")
