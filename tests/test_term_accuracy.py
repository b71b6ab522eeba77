"""Per-term accuracy of the series built by ratio recurrence.

`gamma_pfd_series` and `inverse_square_series` carry each term's
log-magnitude as a running sum of log-ratio steps.  The terms are captured
where they enter the summation engine and compared
one by one with 40-digit mpmath values formed from gamma functions directly.
"""

import random

import mpmath as mp
import pytest

from omega_zeta import gamma_pfd_series, inverse_square_series

TERM_REL_TOL = 1e-13


def _pfd_grid():
    rng = random.Random(20201)
    # Below a = 0.25 the factor (2a-1)/(k+1) is < -1/2 at k = 0 and takes a
    # direct log|ratio| step (0.2499 and 0.2501 sit either side of that
    # edge); so does 1/(a+k) while -2 < a+k < 0, as at a = -0.001.  a < 0
    # has negative coefficients and Gamma(2a+k) of either sign.  At
    # a = -1.94 an uncompensated running sum of the log-magnitudes misses
    # by 1.7e-13.
    cases = [(0.1, 0.3, 1024), (-0.3, 0.2 + 0.1j, 1024), (-2.9, 0.41, 1024),
             (-1.94, 0.31, 1024), (2.97, 0.428, 384), (0.6, 0.35j, 256),
             (0.2499, 0.3, 1024), (0.2501, 0.3, 1024), (-0.001, 0.3, 256)]
    while len(cases) < 19:
        a = rng.uniform(-2.9, 3.0)
        z = complex(rng.uniform(-0.45, 0.45), rng.choice((0.0, rng.uniform(-0.3, 0.3))))
        n_terms = rng.choice((16, 256, 1024))
        # Off the poles of Gamma(a)^2, Gamma(2a+k) and z^2 = (a+k)^2.
        if ((a < 0 and abs(2 * a - round(2 * a)) < 0.02)
                or min(abs(z * z - (a + k) ** 2) for k in range(4)) < 0.02):
            continue
        cases.append((round(a, 6), z, n_terms))
    return cases


def _inverse_square_grid():
    rng = random.Random(20202)
    # 2q+1 changes sign at q = -1/2, and (2q+1)/n < -1/2 at n = 1 for q < -3/4.
    cases = [(-0.9, 1024), (-0.3, 256), (1.882382, 1024), (3.0, 1024),
             (-0.5001, 1024), (-0.4999, 1024), (-0.7501, 256), (-0.7499, 256)]
    cases += [(round(rng.uniform(-0.99, 3.0), 6), rng.choice((16, 256, 1024)))
              for _ in range(6)]
    return cases


def _max_rel_error(got, ref):
    return max(float(abs(g - r) / abs(r)) for g, r in zip(got, ref, strict=True))


@pytest.mark.parametrize("a,z,n_terms", _pfd_grid())
def test_gamma_pfd_terms_match_multiprecision(captured, a, z, n_terms):
    gamma_pfd_series(a, z, n_terms, "euler")
    (got,) = captured
    with mp.workdps(40):
        a_mp, z2 = mp.mpf(a), mp.mpc(z) ** 2
        ref = [(-1) ** (k + 1) * mp.gamma(2 * a_mp + k) / ((a_mp + k) * mp.factorial(k))
               * 2 * z2 / (z2 - (a_mp + k) ** 2) for k in range(n_terms)]
    # The first terms, whose signs do not alternate yet, are summed apart.
    assert _max_rel_error(got, ref[n_terms - len(got):]) <= TERM_REL_TOL


@pytest.mark.parametrize("q,n_terms", _inverse_square_grid())
def test_inverse_square_terms_match_multiprecision(captured, q, n_terms):
    inverse_square_series(q, n_terms, "euler")
    (got,) = captured
    with mp.workdps(40):
        q_mp = mp.mpf(q)
        ref = [-2 * (-1) ** n * mp.gamma(2 * q_mp + n + 1)
               / (mp.gamma(q_mp + 1) ** 2 * mp.factorial(n - 1) * (q_mp + n) ** 3)
               for n in range(1, n_terms + 1)]
    assert _max_rel_error(got, ref) <= TERM_REL_TOL


def test_inverse_square_large_n_within_its_estimate():
    # The terms were once lgamma differences near 6000, 2e-12 off each,
    # which put this result 2.2e-7 from psi'(q+1) against an estimate of 3e-9.
    rep = inverse_square_series(1.882382, 1024, "euler")
    with mp.workdps(40):
        ref = mp.psi(1, mp.mpf(1.882382) + 1)
    assert float(abs(rep.value - ref)) <= rep.error_estimate


def test_gamma_pfd_large_n_cvz_error():
    # Was 2.2e-8 off with lgamma-difference terms.
    rep = gamma_pfd_series(2.97, 0.428, 384, "cvz")
    with mp.workdps(40):
        a, z = mp.mpf(2.97), mp.mpf(0.428)
        ref = mp.gamma(a + z) * mp.gamma(a - z)
    assert float(abs(rep.value - ref)) <= 1e-9
