"""Entropic uncertainty relations and their slack.

Conjugate orders 1/alpha + 1/beta = 2 pair a position entropy with a
momentum entropy.  The harmonic ground state saturates both the Rényi and
the Tsallis inequalities exactly; the nonlinear deformation breaks the
saturation, and the slack grows with the quantum number.
"""

from darboux3 import ModelParams, conjugate_order, xi_renyi, xi_tsallis

print("conjugate pairs:")
for alpha in (0.6, 0.8, 1.0, 2.0, 3.0):
    print(f"  alpha = {alpha:5.3f}  ->  beta = {conjugate_order(alpha):.6f}")

harmonic = ModelParams(1.0, 0.0)
deformed = ModelParams(1.0, 0.4)

print("\nRenyi slack at order 2 (position engine shown):")
for label, params in (("harmonic", harmonic), ("lam=0.4", deformed)):
    for n in (0, 1, 2):
        r = xi_renyi(params, n, 2.0)
        print(f"  {label:9s} n={n}: xi = {r.value:.8f}  [{r.position_method}]")

print("\nTsallis slack (valid for 1/2 < alpha <= 1):")
for alpha in (0.6, 0.8):
    for n in (0, 2):
        r = xi_tsallis(deformed, n, alpha)
        print(f"  alpha={alpha} n={n}: xi = {r.value:.6f}")

print("\nthe ground-state slack grows with lam while excited slacks dip:")
for lam in (0.0, 0.4, 1.0, 2.0, 3.0):
    p = ModelParams(1.0, lam)
    print(
        f"  lam={lam:4}: n=0 {xi_renyi(p, 0, 2.0).value:.8f}   "
        f"n=2 {xi_renyi(p, 2, 2.0).value:.8f}"
    )

print("\nnon-monotone slack in lam for the Tsallis order 2/3 at n = 1:")
for lam in (0.0, 0.1, 0.4, 1.0, 1.5):
    v = xi_tsallis(ModelParams(1.0, lam), 1, 2.0 / 3.0).value
    print(f"  lam={lam:4}: xi = {v:.6f}")
