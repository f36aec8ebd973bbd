"""Seeded property sweep over (lam, n, alpha) at the derived momentum cut.

Each case draws lam log-uniformly from one of six equal log strata of
[0.05, 30], n from 0..10 and four orders from [0.3, 4] (none within 0.05 of
1), from a fixed seed, so the sweep is the same on every run.  Every case
checks identities and inequalities that hold exactly:

* Parseval: the momentum density integrates to 1;
* omega scaling: gamma(p; omega, lam omega) = gamma(p / sqrt(omega); 1, lam)
  / sqrt(omega), so momentum entropies shift by +ln(omega) / 2;
* Rényi and Tsallis entropies do not increase with the order, in both
  spaces;
* the Rényi and Tsallis uncertainty slacks are non-negative.
"""

import math

import numpy as np
import pytest

from darboux3 import ModelParams, entropy, momentum_profile, xi_renyi, xi_tsallis


def _draw_cases(seed=20261018, strata=6, lo=0.05, hi=30.0):
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(strata):
        lam = lo * math.exp((i + rng.random()) * math.log(hi / lo) / strata)
        n = int(rng.integers(0, 11))
        alphas = set()
        while len(alphas) < 4:
            a = round(float(rng.uniform(0.3, 4.0)), 3)
            if abs(a - 1.0) >= 0.05:
                alphas.add(a)
        cases.append((round(lam, 4), n, tuple(sorted(alphas))))
    return cases


CASES = _draw_cases()


@pytest.fixture(params=CASES, ids=[f"lam{c[0]}-n{c[1]}" for c in CASES])
def case(request):
    return request.param


def test_parseval(case):
    lam, n, _ = case
    prof = momentum_profile(ModelParams(1.0, lam), n)
    assert abs(2.0 * float(prof.weights @ prof.gamma) - 1.0) <= 1e-10


def test_omega_scaling(case):
    lam, n, alphas = case
    omega = 2.5
    for a in alphas:
        if a < 0.5:  # the cut bounds the truncation of orders >= 1/2 only
            continue
        scaled = entropy(ModelParams(omega, lam * omega), n, a, "momentum", "renyi")
        unit = entropy(ModelParams(1.0, lam), n, a, "momentum", "renyi")
        assert scaled == pytest.approx(unit + 0.5 * math.log(omega), abs=1e-10)


@pytest.mark.parametrize("kind", ["renyi", "tsallis"])
@pytest.mark.parametrize("space", ["position", "momentum"])
def test_entropies_non_increasing_in_order(case, space, kind):
    lam, n, alphas = case
    params = ModelParams(1.0, lam)
    vals = [entropy(params, n, a, space, kind) for a in alphas]
    assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))


def test_slacks_non_negative(case):
    lam, n, alphas = case
    params = ModelParams(1.0, lam)
    for a in alphas:
        if a > 0.5:
            assert xi_renyi(params, n, a).value >= 0.0
        if 0.5 < a < 1.0:
            assert xi_tsallis(params, n, a).value >= 0.0
    assert xi_tsallis(params, n, 0.75).value >= 0.0
