"""Spectrum and eigenstates of the nonlinear oscillator.

The mass profile 1 + lam x^2 bends the equally spaced harmonic ladder:
levels compress, the effective frequency Omega_n shrinks with both n and
lam, and the density spreads in position space.  This script prints the
low-lying spectrum for a few nonlinearities and samples the ground-state
density; with matplotlib installed it also saves a figure.
"""

import numpy as np

from darboux3 import (
    ModelParams,
    density_position,
    effective_frequency,
    energy,
    norm_constant,
)

print("energy levels E_n (omega = 1)")
print("lam \\ n " + "".join(f"{n:>10d}" for n in range(6)))
for lam in (0.0, 0.1, 0.2, 0.3, 0.4):
    params = ModelParams(1.0, lam)
    row = "".join(f"{energy(params, n):10.5f}" for n in range(6))
    print(f"{lam:7.1f} {row}")

print("\neffective frequencies Omega_n (omega = 1)")
for lam in (0.0, 0.2, 0.4):
    params = ModelParams(1.0, lam)
    row = "".join(f"{effective_frequency(params, n):10.5f}" for n in range(6))
    print(f"{lam:7.1f} {row}")

print("\nper-level quantities at lam = 0.4:")
params = ModelParams(1.0, 0.4)
for n in range(4):
    print(
        f"  n={n}: E={energy(params, n):.6f}  Omega={effective_frequency(params, n):.6f}"
        f"  N={norm_constant(params, n):.6f}"
    )

xs = np.linspace(-6.0, 6.0, 601)
dens = {lam: density_position(ModelParams(1.0, lam), 0, xs) for lam in (0.0, 0.5, 2.0)}
print("\nground-state density at x = 0 spreads with lam:")
for lam, d in dens.items():
    print(f"  lam={lam}: rho(0) = {d[len(xs)//2]:.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for lam, d in dens.items():
        ax.plot(xs, d, label=f"lam = {lam}")
    ax.set_xlabel("x")
    ax.set_ylabel("density")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_01_density.png", dpi=120)
    print("\nsaved demo_01_density.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
