"""Extraction of C3 from measured or synthesized diffraction data.

Pipeline: an angular scan is reduced to per-order peak areas by windowed
Gaussian least squares; areas become relative intensities R_n; a
one-parameter chi^2 fit against the diffraction model then yields C3
with a Delta-chi^2 = 1 uncertainty.  Synthesis helpers generate noisy
data from the same model for closed-loop tests.

Conventions: angles rad, C3 meV nm^3.  The model intensities are always
normalized over exactly the set of orders entering the fit, so dropping
an order changes the normalization consistently on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundarySolutionError,
    FitFailureError,
    InvalidInputError,
    MissingPeakError,
    MultimodalObjectiveError,
)
from .grating import (
    AngularScan,
    OrderIntensities,
    Potential,
    _finite,
    _order_intensity_sets,
    _order_thetas,
    _require,
    angular_pattern,
    intensities_for_orders,
)

__all__ = [
    "C3FitResult",
    "GaussianPeak",
    "fit_c3",
    "fit_gaussian_peaks",
    "normalize_orders",
    "synthesize_orders",
    "synthesize_scan",
]

RNG_ALGORITHM = "pcg64"  # np.random.default_rng bit generator


def _rng(seed):
    _require(int(seed) >= 0, "seed must be a nonnegative integer")
    return np.random.default_rng(int(seed))


# ---------------------------------------------------------------------------
# Peak extraction


@dataclass(frozen=True)
class GaussianPeak:
    """One fitted peak: value(x) = amplitude exp(-(x-center)^2/(2 width^2)) + background."""

    amplitude: float
    center: float
    width: float
    background: float
    area_sigma: float = 0.0

    def __post_init__(self):
        vals = [self.amplitude, self.center, self.width, self.background,
                self.area_sigma]
        _require(_finite(vals), "peak parameters must be finite")
        _require(self.amplitude > 0, "amplitude must be positive")
        _require(self.width > 0, "width must be positive")
        _require(self.area_sigma >= 0, "area_sigma must be nonnegative")

    @property
    def area(self):
        """Background-subtracted peak area, amplitude * width * sqrt(2 pi)."""
        return self.amplitude * self.width * math.sqrt(2.0 * math.pi)


def _gauss_model(x, amplitude, center, width, background):
    return amplitude * np.exp(-0.5 * ((x - center) / width) ** 2) + background


def _window_slices(angles, centers):
    """Disjoint index windows around each expected center."""
    gaps = np.diff(centers)
    half = 0.5 * float(gaps.min()) if gaps.size else \
        0.25 * (angles[-1] - angles[0])
    for c in centers:
        sel = (angles >= c - half) & (angles <= c + half)
        yield sel


def fit_gaussian_peaks(scan, centers, width_guess=1e-4):
    """Fit one Gaussian-plus-background per expected peak center.

    Parameters
    ----------
    scan : AngularScan
        Count data versus angle.
    centers : sequence of float
        Expected peak positions, rad, strictly increasing.  A disjoint
        window of half the smallest center spacing is cut around each.
    width_guess : float
        Fallback initial peak sigma, rad (defaults to a 1e-4 rad beam
        divergence scale); a data-driven half-width estimate is used
        when the window supports one.

    Returns
    -------
    list of GaussianPeak, one per center, in order.

    Raises
    ------
    MissingPeakError
        If any window lacks a significant peak (collected across all
        windows before raising).
    FitFailureError
        If the least-squares iteration fails to converge on a window.

    Notes
    -----
    Samples are weighted as Poisson counts, sigma_i = sqrt(max(y_i, 1)).
    The area uncertainty follows from the (amplitude, width) covariance
    of the weighted fit.  A window is declared missing when its maximum
    does not rise at least five Poisson sigma above the lower decile, or
    when the fitted amplitude is below three of its own sigma.
    """
    from scipy.optimize import curve_fit  # off the import path of the CLI

    centers = np.asarray(centers, dtype=float)
    _require(centers.ndim == 1 and centers.size >= 1,
             "need at least one expected center")
    _require(np.all(np.diff(centers) > 0),
             "centers must be strictly increasing")
    _require(_finite([width_guess]) and width_guess > 0,
             "width_guess must be positive")

    peaks = []
    missing = []
    for c, sel in zip(centers, _window_slices(scan.angles, centers)):
        x = scan.angles[sel]
        y = scan.values[sel]
        if x.size < 8:
            raise InvalidInputError(
                f"window at {c:.6g} rad holds {x.size} samples; need >= 8")
        background = float(np.quantile(y, 0.1))
        peak_height = float(y.max()) - background
        if peak_height < 5.0 * math.sqrt(max(background, 1.0)):
            missing.append(float(c))
            continue
        # data-driven width: half width at half maximum of the window
        i_max = int(np.argmax(y))
        above = y - background > 0.5 * peak_height
        hwhm = 0.5 * (x[above][-1] - x[above][0]) if above.sum() >= 2 else 0.0
        sigma0 = hwhm / math.sqrt(2.0 * math.log(2.0)) if hwhm > 0 \
            else width_guess
        sigma0 = min(max(sigma0, float(np.diff(x).min())), width_guess * 10)
        p0 = [peak_height, float(x[i_max]), sigma0, background]
        weights = np.sqrt(np.maximum(y, 1.0))
        try:
            popt, pcov = curve_fit(
                _gauss_model, x, y, p0=p0, sigma=weights,
                absolute_sigma=True, xtol=1e-8, maxfev=200 * (len(p0) + 1))
        except RuntimeError as exc:
            raise FitFailureError(
                f"peak fit at {c:.6g} rad did not converge: {exc}") from exc
        amplitude, center, width, bg = popt
        width = abs(float(width))
        if (not np.all(np.isfinite(popt))
                or amplitude <= 0
                or amplitude < 3.0 * math.sqrt(max(pcov[0, 0], 0.0))):
            missing.append(float(c))
            continue
        # area = A w sqrt(2 pi); propagate the (A, w) covariance block
        j = np.array([width, 0.0, amplitude, 0.0]) * math.sqrt(2.0 * math.pi)
        var = float(j @ pcov @ j)
        peaks.append(GaussianPeak(
            amplitude=float(amplitude), center=float(center), width=width,
            background=float(bg), area_sigma=math.sqrt(max(var, 0.0))))
    if missing:
        raise MissingPeakError(
            f"no significant peak near {len(missing)} expected "
            f"center(s): {', '.join(f'{c:.6g}' for c in missing)} rad",
            centers=missing)
    return peaks


def normalize_orders(order_peaks):
    """Turn per-order peak areas into relative intensities.

    Parameters
    ----------
    order_peaks : sequence of (order, GaussianPeak)
        Distinct integer orders with their fitted peaks.

    Returns
    -------
    OrderIntensities with sigma propagated from the per-peak area
    uncertainties (normalization treated as a constant).
    """
    pairs = sorted(((int(n), p) for n, p in order_peaks), key=lambda t: t[0])
    _require(len(pairs) >= 1, "need at least one order")
    orders = [n for n, _ in pairs]
    _require(len(set(orders)) == len(orders), "orders must be distinct")
    areas = np.array([p.area for _, p in pairs])
    sigmas = np.array([p.area_sigma for _, p in pairs])
    return OrderIntensities.from_raw(tuple(orders), areas, sigmas)


# ---------------------------------------------------------------------------
# C3 fit


@dataclass(frozen=True)
class C3FitResult:
    """Best-fit C3 (meV nm^3) with Delta-chi^2 = 1 uncertainty.

    residuals holds observed - model at the optimum, ordered like
    orders; evaluations counts distinct model evaluations.
    """

    c3: float
    uncertainty: float
    chi2: float
    orders: tuple
    residuals: np.ndarray
    evaluations: int


def _strict_local_minima(values):
    """Indices of interior strict local minima of a sampled curve."""
    values = np.asarray(values, dtype=float)
    hits = []
    for i in range(1, len(values) - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            hits.append(i)
    return hits


_SQRT_EPS = math.sqrt(2.2e-16)  # scipy's value, kept so the steps agree
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_RTOL = 4.0 * np.finfo(float).eps  # brentq's default relative tolerance


def _brent_min(f, a, b, xatol):
    """(x, f(x)) at a minimum of f on [a, b] by Brent's bounded search.

    Golden-section steps with parabolic interpolation through the three
    best points x, w, v (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973), as scipy's _minimize_scalar_bounded runs it,
    500 evaluations at most: both visit the same points.
    """
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    rat = e = 0.0
    calls = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a) and calls < 500:
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                rat = p / q
                if x + rat - a < tol2 or b - (x + rat) < tol2:
                    rat = tol1 if xm >= x else -tol1
        if golden:
            e = a - x if x >= xm else b - x
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        u = x - step if rat < 0 else x + step
        fu = f(u)
        calls += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
    return x, fx


def _brent_root(f, a, b, xtol, maxiter=100):
    """Root of f in [a, b], where f changes sign, by Brent's method.

    Inverse quadratic or secant steps, bisection when they are too slow,
    as scipy's brentq runs it with its defaults (rtol = 4 eps,
    maxiter = 100): both visit the same points.  Raises FitFailureError
    when the bracket does not change sign or maxiter steps do not
    converge.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise FitFailureError(f"no sign change of the root function on "
                              f"[{a:.6g}, {b:.6g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic through pre, cur, blk
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
        if stry is not None and \
                2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise FitFailureError(f"root search on [{a:.6g}, {b:.6g}] did not "
                          f"converge in {maxiter} steps")


def fit_c3(observed, geometry, beam, bounds=(0.0, 20.0), tol=1e-8,
           xatol=1e-3, grid_points=25):
    """Least-squares estimate of C3 from relative order intensities.

    chi^2(C3) = sum_n w_n (R_n^obs - R_n^model(C3))^2 with w_n = 1/sigma_n^2
    when the observations carry uncertainties, else w_n = 1.  The model
    is normalized over exactly the observed orders.  A coarse grid over
    bounds, evaluated in one batched slit-quadrature call, guards against
    multiple minima and boundary solutions, then bounded Brent refinement
    (golden section with parabolic steps, Brent 1973, step for step as
    scipy's minimize_scalar "bounded") localizes the minimum to xatol
    between the grid neighbours of the grid minimum.  The Delta-chi^2
    crossings are found by Brent's root finder, step for step as scipy's
    brentq.  Refinement and crossings evaluate one C3 at a time.

    The one-sigma uncertainty is half the width of the
    chi^2 = chi2_min + Delta interval, Delta = 1 for weighted fits and
    chi2_min / dof otherwise (the usual rescaling when sigma is
    unknown); it is floored at xatol, the optimizer's resolution.

    The model is monochromatic: beam.dv_over_u is ignored.  Data made
    with a velocity spread are fitted with a bias; on orders 1..10
    averaged over the shipped configs' 3% spread the fit gives
    C3 = 4.130 +- 0.024 (He*) and 4.116 +- 0.015 (Ne*) against a true
    4.1 (ROADMAP.md: fit and synthesise the model that made the data).

    Raises
    ------
    FitFailureError
        A Delta-chi^2 crossing did not converge.
    MultimodalObjectiveError
        More than one strict local minimum on the coarse grid.
    BoundarySolutionError
        Grid minimum at an endpoint of bounds, or the refined minimum
        within xatol of one.
    InvalidInputError
        Fewer than three observed orders, or malformed bounds.
    """
    _require(len(observed.orders) >= 3,
             "need at least three orders to constrain C3")
    lo, hi = float(bounds[0]), float(bounds[1])
    _require(_finite([lo, hi]) and 0 <= lo < hi, "bounds must satisfy 0 <= lo < hi")
    _require(int(grid_points) >= 5, "grid_points must be >= 5")
    _require(xatol > 0, "xatol must be positive")

    robs = observed.intensity
    if observed.sigma is not None and np.all(observed.sigma > 0):
        weights = 1.0 / observed.sigma**2
        weighted = True
    else:
        weights = np.ones_like(robs)
        weighted = False

    cache = {}

    def model(c3):
        if c3 not in cache:
            cache[c3] = intensities_for_orders(
                Potential(c3), geometry, beam, observed.orders, tol).intensity
        return cache[c3]

    def chi2(c3):
        r = robs - model(float(c3))
        return float(np.sum(weights * r * r))

    grid = np.linspace(lo, hi, int(grid_points))
    thetas = _order_thetas(observed.orders, beam.wavelength, geometry.period)
    potentials = [Potential(float(c3)) for c3 in grid]
    for p, (r, _) in zip(potentials, _order_intensity_sets(
            potentials, geometry, [beam] * grid.size, thetas, tol)):
        cache[p.c3] = r
    curve = [chi2(x) for x in grid]
    minima = _strict_local_minima(curve)
    i0 = int(np.argmin(curve))
    if len(minima) > 1:
        locs = ", ".join(f"{grid[i]:.4g}" for i in minima)
        raise MultimodalObjectiveError(
            f"chi^2(C3) has {len(minima)} local minima on "
            f"[{lo:.4g}, {hi:.4g}] (near C3 = {locs}); "
            "narrow the bounds or supply more orders")
    if i0 == 0 or i0 == len(grid) - 1:
        raise BoundarySolutionError(
            f"chi^2 minimum at the {'lower' if i0 == 0 else 'upper'} "
            f"search bound {grid[i0]:.4g}; widen bounds")

    c3_hat, chi2_min = _brent_min(chi2, float(grid[i0 - 1]),
                                  float(grid[i0 + 1]), 0.5 * xatol)
    if min(c3_hat - lo, hi - c3_hat) < xatol:
        raise BoundarySolutionError(
            f"refined minimum {c3_hat:.4g} sits within xatol of a search "
            "bound; widen bounds")

    dof = max(len(observed.orders) - 1, 1)
    delta = 1.0 if weighted else max(chi2_min, 1e-30) / dof
    target = chi2_min + delta

    def crossing(direction):
        step = max(xatol, 0.01 * max(c3_hat, 1.0))
        x_prev, x_cur = c3_hat, c3_hat
        for _ in range(60):
            x_prev, x_cur = x_cur, x_cur + direction * step
            x_cur = min(max(x_cur, lo), hi)
            if chi2(x_cur) >= target:
                root = _brent_root(
                    lambda x: chi2(x) - target, min(x_prev, x_cur),
                    max(x_prev, x_cur), xtol=xatol * 1e-2)
                return abs(root - c3_hat)
            if x_cur in (lo, hi):
                return abs(x_cur - c3_hat)
            step *= 2.0
        return abs(x_cur - c3_hat)

    half_widths = [crossing(+1.0), crossing(-1.0)]
    uncertainty = max(0.5 * (half_widths[0] + half_widths[1]), xatol)
    residuals = robs - model(c3_hat)
    return C3FitResult(
        c3=c3_hat, uncertainty=float(uncertainty), chi2=chi2_min,
        orders=observed.orders, residuals=residuals,
        evaluations=len(cache))


# ---------------------------------------------------------------------------
# Synthesis


def synthesize_orders(potential, geometry, beam, orders, noise_fraction=0.0,
                      seed=0, tol=1e-8):
    """Model order intensities with multiplicative Gaussian noise.

    Each model value is scaled by (1 + noise_fraction * xi) with
    standard-normal xi from a seeded PCG64 generator, clamped at zero,
    then renormalized.  sigma is set to noise_fraction times the clean
    model value.  noise_fraction = 0 returns the exact model without
    sigma: it has no measurement error, and the quadrature error estimate
    is not one, so fit_c3 fits it unweighted.

    The model is monochromatic: beam.dv_over_u is ignored, unlike
    velocity_averaged_intensities (see fit_c3 for the resulting bias).
    """
    _require(_finite([noise_fraction]) and 0 <= noise_fraction < 1,
             "noise_fraction must lie in [0, 1)")
    clean = intensities_for_orders(potential, geometry, beam, orders, tol)
    if noise_fraction == 0:
        return OrderIntensities(clean.orders, clean.intensity)
    rng = _rng(seed)
    xi = rng.standard_normal(len(clean.orders))
    noisy = np.clip(clean.intensity * (1.0 + noise_fraction * xi), 0.0, None)
    sigma = noise_fraction * clean.intensity
    return OrderIntensities.from_raw(clean.orders, noisy, sigma)


def synthesize_scan(potential, geometry, beam, theta_grid, n_slits=100,
                    noise_fraction=0.0, seed=0, peak_counts=1e6, tol=1e-8):
    """Noisy angular scan from the coherent diffraction pattern.

    The pattern is scaled so its maximum equals peak_counts (count-like
    numbers keep Poisson peak weighting sensible), then each sample is
    multiplied by (1 + noise_fraction * xi), clamped at zero.  Seeded
    PCG64, bit-for-bit reproducible.
    """
    _require(_finite([noise_fraction]) and 0 <= noise_fraction < 1,
             "noise_fraction must lie in [0, 1)")
    _require(_finite([peak_counts]) and peak_counts > 0,
             "peak_counts must be positive")
    scan = angular_pattern(theta_grid, potential, geometry, beam,
                           n_slits=n_slits, tol=tol)
    values = scan.values * (peak_counts / scan.values.max())
    if noise_fraction > 0:
        rng = _rng(seed)
        xi = rng.standard_normal(values.size)
        values = np.clip(values * (1.0 + noise_fraction * xi), 0.0, None)
    return AngularScan(scan.angles, values, n_slits=n_slits)
