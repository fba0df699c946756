"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the library: different
integration variables, brute-force grids, no shared quadrature code.
Slow is fine; these run on a handful of points.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

HBAR_EV_S = 6.582119569e-16
NM_PER_M = 1e9


def phase_by_line_integral(zeta, c3_mev_nm3, bar_depth, wedge_angle,
                           velocity):
    """phi(zeta) as the straight-line integral of the wall potential.

    phi = (1 / hbar v) Int_0^t C3 / (zeta + z tan beta)^3 dz, evaluated
    by adaptive quadrature; the library uses the closed form instead.
    """
    c3_ev = c3_mev_nm3 * 1e-3
    hv = HBAR_EV_S * velocity * NM_PER_M
    tan_b = math.tan(wedge_angle)

    def integrand(z):
        return c3_ev / (hv * (zeta + z * tan_b) ** 3)

    val, err = integrate.quad(integrand, 0.0, bar_depth,
                              epsabs=1e-16, epsrel=1e-13, limit=400)
    return val, err


class SlitReference:
    """Brute-force slit integral Int_0^{s0/2} cos[b(s0/2-z)] e^{i phi} dz.

    Outer region [z_split, s0/2]: plain trapezoid on two million points.
    Inner region [0, z_split]: substitution u = phi(z) (z decreasing in
    u), so the integral becomes -Int g(z(u)) e^{iu} / phi'(u) du over
    [phi(z_split), u_max], done with 12-point Gauss on pi-long panels.
    z_split adapts so |phi'| >= split_slope there, keeping the outer
    trapezoid resolvable; u_max controls a ~|1/phi'(z(u_max))|
    truncation.  Validated variants (Simpson in u, different grids)
    agree with this one to ~5e-10 relative.
    """

    def __init__(self, c3_mev_nm3, bar_depth, wedge_angle, velocity,
                 slit_width, split_slope=30.0, u_extent=2.0e6):
        c3_ev = c3_mev_nm3 * 1e-3
        hv = HBAR_EV_S * velocity * NM_PER_M
        self.a = c3_ev * bar_depth / hv
        self.c = bar_depth * math.tan(wedge_angle)
        self.half = 0.5 * slit_width
        self.split_slope = split_slope
        self.u_extent = u_extent

    def phi(self, z):
        z = np.asarray(z, dtype=float)
        return self.a * (2 * z + self.c) / (2 * z**2 * (z + self.c) ** 2)

    def dphi(self, z):
        z = np.asarray(z, dtype=float)
        log_der = (2 / (2 * z + self.c) - 2 / z - 2 / (z + self.c))
        return self.phi(z) * log_der

    def _invert(self, u):
        zg = np.geomspace(1e-5, self.half, 60000)
        pg = self.phi(zg)
        z = np.interp(u, pg[::-1], zg[::-1])
        for _ in range(6):
            z = z - (self.phi(z) - u) / self.dphi(z)
        return z

    def value(self, b):
        if self.a == 0:
            zz = np.linspace(0.0, self.half, 2_000_001)
            return complex(np.trapezoid(np.cos(b * (self.half - zz)), zz))
        zz = np.geomspace(1e-4, self.half, 20000)
        steep = np.abs(self.dphi(zz)) >= self.split_slope
        z_split = float(zz[steep][-1]) if steep.any() else float(zz[0])
        z_split = min(z_split, 0.5 * self.half)

        zo = np.linspace(z_split, self.half, 2_000_001)
        outer = np.trapezoid(
            np.cos(b * (self.half - zo)) * np.exp(1j * self.phi(zo)), zo)

        u_lo = float(self.phi(np.asarray(z_split)))
        n_seg = int(math.ceil(self.u_extent / math.pi))
        edges = np.linspace(u_lo, u_lo + n_seg * math.pi, n_seg + 1)
        x, w = leggauss(12)
        mid = 0.5 * (edges[1:] + edges[:-1])
        hw = 0.5 * (edges[1:] - edges[:-1])
        uu = (mid[:, None] + hw[:, None] * x[None, :]).ravel()
        ww = (hw[:, None] * w[None, :]).ravel()
        z = self._invert(uu)
        h = np.cos(b * (self.half - z)) / self.dphi(z)
        inner = -np.sum(ww * h * np.exp(1j * uu))
        return complex(outer + inner)


def slit_integral_mpmath(c3_mev_nm3, bar_depth, wedge_angle, velocity,
                         slit_width, b, dps=30):
    """Int_0^{s0/2} cos[b(s0/2-z)] e^{i phi} dz by tanh-sinh to dps digits
    on a contour that leaves the wall at angle -pi/8.

    Near z = 0, phi ~ A/z^3 (flat wall) or A/(2 c z^2) (tapered), so on
    that ray e^{i phi} dies off faster than any power instead of
    oscillating.  The path runs from 0 along the ray to z1 = (s0/4)
    e^{-i pi/8}, with breakpoints at z1 10^-6 ... z1, then straight to
    s0/2 in pieces of b-phase at most pi.  Off the real axis the cosine
    grows to cosh(b |Im z1|), so the working precision carries that many
    extra digits.  No real-axis quadrature, cut-off or descent path is
    shared with the library.
    """
    half = slit_width / 2
    z1 = half / 2 * complex(math.cos(math.pi / 8), -math.sin(math.pi / 8))
    extra = int(b * abs(z1.imag) / math.log(10)) + 1
    with mpmath.workdps(dps + extra):
        c3_ev = mpmath.mpf(c3_mev_nm3) / 1000
        hv = mpmath.mpf(HBAR_EV_S) * velocity * NM_PER_M
        a = c3_ev * bar_depth / hv
        c = bar_depth * mpmath.tan(mpmath.mpf(wedge_angle))
        half = mpmath.mpf(slit_width) / 2
        b = mpmath.mpf(b)

        def integrand(z):
            phi = a * (2 * z + c) / (2 * z**2 * (z + c) ** 2)
            return mpmath.cos(b * (half - z)) * mpmath.exp(1j * phi)

        z1 = half / 2 * mpmath.expjpi(mpmath.mpf(-1) / 8)
        ray = [z1 * mpmath.mpf(10) ** k for k in range(-6, 1)]
        n_seg = int(b * abs(half - z1) / mpmath.pi) + 1
        seg = [z1 + (half - z1) * mpmath.mpf(k) / n_seg
               for k in range(1, n_seg + 1)]
        return complex(mpmath.quad(integrand, [0] + ray + seg))


def bare_slit_amplitude(theta, wavelength, slit_width):
    """Closed-form slit amplitude without the wall potential.

    f(theta) = (2 cos theta / sqrt(lambda)) sin(k s0 sin(theta) / 2)
               / (k sin(theta)); the theta -> 0 limit is
    (2 / sqrt(lambda)) (s0 / 2).
    """
    k = 2 * math.pi / wavelength
    pref = 2 * math.cos(theta) / math.sqrt(wavelength)
    x = k * math.sin(theta)
    if x == 0:
        return pref * slit_width / 2
    return pref * math.sin(x * slit_width / 2) / x


def kk_eps_brute(w, band_gap, strength, resonance, width, n_panels=2_000_000,
                 wmax=1e4):
    """eps(iw) by uniform trapezoid over [band_gap, wmax] plus the
    analytic tail of the model spectrum beyond wmax."""
    e = np.linspace(band_gap, wmax, n_panels + 1)
    num = strength * resonance * width * (e - band_gap) ** 2
    den = ((e**2 - resonance**2) ** 2 + (width * e) ** 2) * e
    eps2 = np.where(e > band_gap, num / den, 0.0)
    integrand = e * eps2 / (e**2 + w**2)
    main = (2 / math.pi) * np.trapezoid(integrand, e)
    c_tail = strength * resonance * width
    r = w / wmax
    if r < 1e-4:
        q = (1 / wmax**3) * (1 / 3 - r**2 / 5 + r**4 / 7)
    else:
        q = (1 / w**2) * (1 / wmax - math.atan(w / wmax) / w)
    return 1.0 + main + (2 / math.pi) * c_tail * q


def kk_eps_mpmath(w, band_gap, strength, resonance, width, dps=40):
    """eps(iw) by tanh-sinh quadrature of the Kramers-Kronig integral over
    [band_gap, inf) at dps significant digits, with no spectral cut-off.

    The range is split at the resonance, past the Lorentz peak and at w,
    so that every scale of the integrand sits at a panel edge.
    """
    with mpmath.workdps(dps):
        eg, a, e0, c, w = (mpmath.mpf(v) for v in
                           (band_gap, strength, resonance, width, w))

        def integrand(e):
            q = (e * e - e0 * e0) ** 2 + c * c * e * e
            return a * e0 * c * (e - eg) ** 2 / (q * (e * e + w * w))

        cuts = sorted({eg, max(e0, eg), eg + 2 * (e0 + c), max(w, eg)})
        val = mpmath.quad(integrand, cuts + [mpmath.inf])
        return float(1 + 2 * val / mpmath.pi)


def c3_semi_infinite_sum(alpha0, g0, ea, es):
    """Lifshitz integral of two Lorentzians via scipy.quad, meV nm^3.

    Cross-checks the closed form alpha0 g0 ea es / (8 (ea + es)).
    """

    def integrand(e):
        return (alpha0 / (1 + (e / ea) ** 2)) * (g0 / (1 + (e / es) ** 2))

    val, _ = integrate.quad(integrand, 0, np.inf, limit=400)
    return 1000.0 * val / (4 * math.pi)
