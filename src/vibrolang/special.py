"""The special functions that the band integrals, the response transform
and the sideband comb use, on numpy and `math` alone: a Gauss-Legendre
rule, a fast FFT length, and the log-weights and tail of a Poisson law."""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

# nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]
roots_legendre = np.polynomial.legendre.leggauss


@functools.cache
def _fast_lengths(bits):
    """The 2,3,5,7,11-smooth integers up to 2^bits, ascending."""
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for m in lengths:
            while m <= 1 << bits:
                grown.append(m)
                m *= p
        lengths = grown
    return tuple(sorted(lengths))


def next_fast_len(n):
    """The smallest 2,3,5,7,11-smooth integer >= n: the least length at or
    above n whose complex FFT factors into radices up to 11."""
    lengths = _fast_lengths(max(n - 1, 0).bit_length())
    return lengths[bisect.bisect_left(lengths, n)]


def log_poisson(k, mean):
    """log(e^{-mean} mean^k / k!) at integers k >= 0: 0 at k = 0 and -inf
    at k > 0 when mean = 0."""
    k = np.asarray(k)
    log_fact = np.array([math.lgamma(j + 1.0)
                         for j in range(int(k.max(initial=0)) + 1)])
    power = k * math.log(mean) if mean > 0 else np.where(k > 0, -np.inf, 0.0)
    return power - log_fact[k] - mean


def _poisson_term(k, s):
    """e^{-s} s^k / k! for s >= 0: by the ratios s/j from e^{-s} while that
    is a normal number (s < 700), which rounds k + 1 times at most, else
    from its log."""
    if s >= 700.0:
        return math.exp(k * math.log(s) - s - math.lgamma(k + 1.0))
    term = math.exp(-s)
    for j in range(1, k + 1):
        term *= s / j
    return term


def poisson_tail(n, s):
    """P(X > n) for X ~ Poisson(s), n >= 0 an integer: the regularized lower
    incomplete gamma function P(n + 1, s).  0 at s = 0 and 1 at s = inf.

    Where s < n + 1 the tail is the small side: it is summed over its own
    terms k > n, which fall from the first.  Otherwise the head k <= n
    holds at most about half the weight, and the tail is 1 minus the head,
    summed down from k = n."""
    if s == math.inf:
        return 1.0
    eps = np.finfo(float).eps
    if s < n + 1:
        k, term, tail = n + 1, _poisson_term(n + 1, s), 0.0
        while term > eps * tail:
            tail += term
            k += 1
            term *= s / k
        return tail
    k, term, head = n, _poisson_term(n, s), 0.0
    while term > eps * head:
        head += term
        if k == 0:
            break
        term *= k / s
        k -= 1
    return 1.0 - head
