"""vibrolang.special against scipy, which the package no longer imports,
and against a 40-digit Poisson sum where scipy itself is not that close."""

import decimal
import math

import numpy as np
import pytest
from scipy import fft, special as sp

from vibrolang import special

# the lengths the bundled presets ask `next_fast_len` for
PRESET_LENGTHS = [720, 6311, 6511, 17283, 42401, 58801, 115203, 172803]


def test_next_fast_len_matches_scipy():
    for n in [*range(1, 10**5 + 1), *PRESET_LENGTHS]:
        assert special.next_fast_len(n) == fft.next_fast_len(n), n


def test_roots_legendre_matches_scipy():
    x, w = special.roots_legendre(20)
    xs, ws = sp.roots_legendre(20)
    np.testing.assert_allclose(x, xs, rtol=1e-13)
    # numpy's and scipy's weights miss the 40-digit rule by up to 7.0e-14
    # and 3.2e-14 relative, both at the end nodes and on opposite sides
    np.testing.assert_allclose(w, ws, rtol=1.1e-13)
    # exact for polynomials of degree <= 39: the even moments 2/(k+1), to
    # the rounding of a 20-term sum (scipy's rule misses them by 1.9e-15)
    k = np.arange(0, 40, 2)
    np.testing.assert_allclose(w @ x[:, None] ** k, 2.0 / (k + 1), rtol=0,
                               atol=20 * np.finfo(float).eps)


@pytest.mark.parametrize("mean", [0.0, 1e-12, 0.3, 2.0, 55.5, 250.0])
def test_log_poisson_matches_xlogy_gammaln(mean):
    k = np.arange(261)
    got = special.log_poisson(k, mean)
    ref = sp.xlogy(k, mean) - sp.gammaln(k + 1) - mean
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    # k log(mean) - log k! - mean cancels: the two may part by the
    # rounding of its terms, where math.lgamma and gammaln differ by an ulp
    fin = np.isfinite(ref)
    size = np.abs(sp.xlogy(k, mean)) + sp.gammaln(k + 1) + mean
    assert np.all(np.abs(got[fin] - ref[fin])
                  <= 4 * np.finfo(float).eps * size[fin])
    if mean == 0:
        assert got[0] == 0.0 and np.all(np.isneginf(got[1:]))


def _exact_tail(n, s):
    """P(X > n), X ~ Poisson(s), summed in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(s)
        term, head = (-x).exp(), decimal.Decimal(0)
        for k in range(n + 1):
            head += term
            term = term * x / (k + 1)
        if s >= n + 1:
            return float(1 - head)
        tail, k = decimal.Decimal(0), n + 1
        while term > tail * decimal.Decimal("1e-40"):
            tail += term
            k += 1
            term = term * x / k
        return float(tail)


def test_poisson_tail_matches_gammainc():
    tiny = np.finfo(float).tiny
    for n in range(251):
        for s in (1e-12, 1e-6, 0.5, n - 1, n, n + 1, 250, 1e4):
            if s < 0:
                continue
            got = special.poisson_tail(n, s)
            exact = _exact_tail(n, s)
            ref = float(sp.gammainc(n + 1, s))
            # below the smallest normal float no relative bound holds
            if exact < tiny:
                assert got < tiny and ref < tiny
                continue
            assert abs(got - exact) <= 1e-14 * exact, (n, s)
            # where x << a scipy forms exp(a log x - x - lgamma(a)), which
            # misses the 40-digit sum by up to 1.5e-13 (9 points: n = 37
            # and 40 at s = 1e-6, 101 to 135 at s = 0.5); only there may
            # the two part by more than 1e-13
            if abs(got - ref) > 1e-13 * ref:
                assert abs(ref - exact) > 9e-14 * exact, (n, s)


def test_poisson_tail_limits():
    assert special.poisson_tail(0, 0.0) == 0.0
    assert special.poisson_tail(250, 0.0) == 0.0
    assert special.poisson_tail(0, math.inf) == 1.0
    assert special.poisson_tail(250, math.inf) == 1.0
    # n = 0 at a small mean: the tail 1 - e^{-s}, summed, not subtracted
    s = 1e-6
    assert abs(special.poisson_tail(0, s) - (-math.expm1(-s))) \
        <= 1e-15 * s
