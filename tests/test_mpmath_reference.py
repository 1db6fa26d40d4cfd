"""The tunneling function F against mpmath quad at 30 digits.

Every other finite-temperature accuracy test of F compares the repo's
quadrature with itself.  These values come from mpmath's tanh-sinh
quadrature instead, integrated with mpmath_forward below (0.1-0.6 s each;
30 and 45 digits agree to 1e-31 relative).  Rewrite them with

    PYTHONPATH=src python tests/test_mpmath_reference.py
"""
import mpmath
import numpy as np
import pytest

from kpoqcr import SystemParams
from kpoqcr.junction import PatIntegrator

# F(x) in Hz at (T_S, T_N) in K, at the deep tail below the gap, the peak
# near -gap, subgap and the thermal tail above x = 0.
OFFSETS = (-90e9, -48.36e9, -10e9, 3e9)
REFERENCE = {
    (0.1, 0.1): (75864610941.793864, 7774804073.6508551,
                 1041431.4677114860, 94248.507890897067),
    (0.2, 0.02): (75901904817.652810, 3443160514.1577814,
                  1233194.7093503286, 343844.46813686262),
    (0.1, 0.0): (75903433509.381000, 494460863.47635981,
                 1023983.0856672197, 45246.461673710798),
}


def mpmath_forward(x, gap, gamma, t_s, t_n, digits=30):
    """F(x) = int n_s(e) (1 - f_S(e)) f_N(e + x) de by mpmath.quad at
    digits, on intervals split at the Fermi edges 0 and -x and at 0, 1,
    10, ..., 1e4 Dynes widths either side of each gap edge.  The window
    reaches 70 k_B T beyond the Fermi edges, and ends at -x at T_N = 0."""
    with mpmath.workdps(digits):
        gap, gamma, x = mpmath.mpf(gap), mpmath.mpf(gamma), mpmath.mpf(x)
        t_s, t_n = mpmath.mpf(t_s), mpmath.mpf(t_n)

        def fermi(e, t):
            if t == 0:
                return mpmath.mpf(e < 0)
            return 1 / (1 + mpmath.exp(e / t))

        def integrand(e):
            z = mpmath.mpc(e, gamma * gap) / gap
            n_s = abs(mpmath.re(z / mpmath.sqrt(z * z - 1)))
            return n_s * (1 - fermi(e, t_s)) * fermi(e + x, t_n)

        pad = 70 * max(t_s, t_n)
        lo = min(0, -x) - pad
        hi = -x if t_n == 0 else max(0, -x) + pad
        cuts = {lo, hi, 0, -x}
        for edge in (-gap, gap):
            for k in (0, 1, 10, 100, 1000, 10000):
                cuts |= {edge - k * gamma * gap, edge + k * gamma * gap}
        cuts = sorted(c for c in cuts if lo <= c <= hi)
        return mpmath.quad(integrand, cuts)


@pytest.mark.parametrize("temps", list(REFERENCE),
                         ids=[f"{s}/{n}K" for s, n in REFERENCE])
def test_interpolated_f_matches_mpmath(params, temps):
    # Within the table tolerance max(rel_tol |F|, rel_tol k_B T), at the
    # default quad_rel_tol 1e-10.  Measured: at most 7.7e-4 of it (0.1 K,
    # -10 GHz), 3.5e-5 at 0.2 / 0.02 K and 3.8e-4 at 0.1 / 0 K.
    p = params.replace(temp_s=temps[0], temp_n=temps[1])
    got = PatIntegrator.from_params(p).evaluate(np.array(OFFSETS))
    want = np.array(REFERENCE[temps])
    tol = p.quad_rel_tol * np.maximum(np.abs(want), max(p.t_s_hz, p.t_n_hz))
    assert np.all(np.abs(got - want) <= tol), (got - want) / tol


if __name__ == "__main__":
    for (temp_s, temp_n) in REFERENCE:
        p = SystemParams(temp_s=temp_s, temp_n=temp_n)
        print((temp_s, temp_n), tuple(
            mpmath.nstr(mpmath_forward(x, p.gap_hz, p.gamma_dynes, p.t_s_hz,
                                       p.t_n_hz), 17) for x in OFFSETS))
