"""Extraction of C3 from measured or synthesized diffraction data.

Pipeline: an angular scan is reduced to per-order peak areas, each the
trapezoid of the counts over one period of the N-slit factor; areas
become relative intensities R_n; a one-parameter chi^2 fit against the diffraction model then yields C3
with a Delta-chi^2 = 1 uncertainty.  The fit runs on a Chebyshev
interpolant of the model in t = C3^(1/6), built from 33 (then, if its
tail is not below tol * max|R|, 65 and 129) nested Chebyshev points in
batched quadrature calls; its minimum, grid checks and crossings come
from the polynomial chi^2(t), and one exact model evaluation at the
minimum gives the residuals, chi^2 and the surrogate's error there.
Synthesis helpers generate noisy data from the same model for
closed-loop tests.

Conventions: angles rad, C3 meV nm^3.  The model intensities are always
normalized over exactly the set of orders entering the fit, so dropping
an order changes the normalization consistently on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

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
    "fit_c3",
    "scan_order_intensities",
    "synthesize_orders",
    "synthesize_scan",
]

RNG_ALGORITHM = "pcg64"  # np.random.default_rng bit generator


def _rng(seed):
    _require(int(seed) >= 0, "seed must be a nonnegative integer")
    return np.random.default_rng(int(seed))


# ---------------------------------------------------------------------------
# Peak extraction


def scan_order_intensities(scan, orders, geometry, beam):
    """Relative order intensities from the peak areas of an angular scan.

    orders are the strictly increasing diffraction orders to take;
    geometry.period and beam.wavelength place them in the scan.
    An N-slit peak is |f|^2 sin^2(N x) / sin^2(x) with
    x = (pi d / lambda) sin(theta), and over one period of x that factor
    integrates to N pi.  So the area of the counts in x over the window
    |x - n pi| <= pi/2, by the trapezoid rule on the samples inside it
    and divided by scan.n_slits * pi, is |f(theta_n)|^2 up to the
    variation of |f|^2 across the window.  The areas of the requested
    orders are normalized with OrderIntensities.from_raw.  No background
    is subtracted: the diffraction pattern has none.

    sigma treats the samples as Poisson counts: the variance of an area
    is sum_i w_i^2 max(y_i, 1) over its trapezoid weights w_i.

    Raises
    ------
    InvalidInputError
        If the scan does not reach a window edge to within one sample
        spacing, or a window holds no more than scan.n_slits samples (the
        trapezoid then aliases the N-slit fringes).
    MissingPeakError
        If a window's maximum does not rise at least five Poisson sigma
        above the window's lower decile (collected across all windows
        before raising).
    """
    orders = tuple(int(n) for n in orders)
    _require(len(orders) >= 1, "need at least one order")
    _require(all(b > a for a, b in zip(orders, orders[1:])),
             "orders must be strictly increasing")
    _require(np.all(np.abs(scan.angles) < math.pi / 2),
             "scan angles must satisfy |theta| < pi/2")
    x = (math.pi * geometry.period / beam.wavelength) * np.sin(scan.angles)
    y = scan.values
    reach = (x[0] - (x[1] - x[0]), x[-1] + (x[-1] - x[-2]))

    areas, variances, missing = [], [], []
    for n in orders:
        lo, hi = (n - 0.5) * math.pi, (n + 0.5) * math.pi
        if lo < reach[0] or hi > reach[1]:
            raise InvalidInputError(
                f"scan covers x in [{x[0]:.6g}, {x[-1]:.6g}]; the window of "
                f"order {n} is [{lo:.6g}, {hi:.6g}]")
        i = int(np.searchsorted(x, lo, side="left"))
        j = int(np.searchsorted(x, hi, side="right"))
        if j - i <= scan.n_slits:
            raise InvalidInputError(
                f"window of order {n} holds {j - i} samples; need more than "
                f"n_slits = {scan.n_slits} to resolve its fringes")
        xw, yw = x[i:j], y[i:j]
        # np.quantile(yw, 0.1), which would import numpy.ma
        floor = float(np.interp(0.1 * (yw.size - 1), np.arange(yw.size),
                                np.sort(yw)))
        if float(yw.max()) - floor < 5.0 * math.sqrt(max(floor, 1.0)):
            missing.append(n)
            continue
        # trapezoid weights (x_{i+1} - x_{i-1}) / 2, one-sided at the ends
        xe = np.concatenate((xw[:1], xw, xw[-1:]))
        w = 0.5 * (xe[2:] - xe[:-2])
        areas.append(float(w @ yw))
        variances.append(float((w * w) @ np.maximum(yw, 1.0)))
    if missing:
        centers = _order_thetas(missing, beam.wavelength, geometry.period)
        raise MissingPeakError(
            f"no significant peak in the window of order(s) "
            f"{', '.join(map(str, missing))}",
            centers=[float(c) for c in centers])
    scale = scan.n_slits * math.pi
    return OrderIntensities.from_raw(orders, np.array(areas) / scale,
                                     np.sqrt(variances) / scale)


# ---------------------------------------------------------------------------
# C3 fit


@dataclass(frozen=True)
class C3FitResult:
    """Best-fit C3 (meV nm^3) with Delta-chi^2 = 1 uncertainty.

    residuals holds observed - model at the optimum, ordered like
    orders; evaluations counts distinct model evaluations.  degree is
    that of the Chebyshev surrogate the fit ran on, and surrogate_error
    the largest |exact - surrogate| model intensity at the optimum.
    """

    c3: float
    uncertainty: float
    chi2: float
    orders: tuple
    residuals: np.ndarray
    evaluations: int
    degree: int
    surrogate_error: float


def _strict_local_minima(values):
    """Indices of interior strict local minima of a sampled curve."""
    values = np.asarray(values, dtype=float)
    hits = []
    for i in range(1, len(values) - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            hits.append(i)
    return hits


_RTOL = 4.0 * np.finfo(float).eps  # brentq's default relative tolerance


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


# degrees of the nested Chebyshev ladder in t = C3^(1/6), each twice the last
_CHEB_LEVELS = (32, 64, 128)


def _cosines(n, rows, cols):
    """cos(pi j k / n) for j < rows, k < cols; j k is reduced mod 2n first,
    so every entry is accurate to rounding."""
    jk = np.outer(np.arange(rows), np.arange(cols)) % (2 * n)
    return np.cos(np.pi / n * jk)


def _cheb_coeffs(values):
    """Chebyshev coefficients of the degree-n interpolant through the rows
    of values at x_j = cos(pi j / n), j = 0..n: the type-I cosine transform
    as one matrix product."""
    n = len(values) - 1
    ends = np.ones((n + 1, 1))
    ends[[0, n]] = 0.5
    return (2.0 / n) * ends * (_cosines(n, n + 1, n + 1) @ (ends * values))


def _cheb_values(coeffs, x):
    """The Chebyshev series with coefficient rows coeffs at x in [-1, 1]."""
    theta = np.arccos(x)
    return np.cos(np.multiply.outer(theta, np.arange(len(coeffs)))) @ coeffs


def fit_c3(observed, geometry, beam, bounds=(0.0, 20.0), tol=1e-8,
           xatol=1e-3, grid_points=25):
    """Least-squares estimate of C3 from relative order intensities.

    chi^2(C3) = sum_n w_n (R_n^obs - R_n^model(C3))^2 with w_n = 1/sigma_n^2
    when the observations carry uncertainties, else w_n = 1.  The model
    is normalized over exactly the observed orders.

    The fit runs on a Chebyshev interpolant of the model R_n in
    t = C3^(1/6) over bounds, one per order.  R_n has a branch point at
    C3 = 0 (tau - 1 goes like C3^(1/3) at a flat wall and like C3^(1/2)
    at a tapered one), and both powers are polynomials in t, so the
    interpolant converges geometrically in t where it converges like 1/k
    in C3 (Trefethen, Approximation Theory and Approximation Practice,
    SIAM 2013, ch. 8 and 18).  The model is evaluated at 33 second-kind
    Chebyshev points in one batched slit-quadrature call.  While the
    largest of the last three coefficients of any order exceeds
    tol * max|R|, the ladder goes on to 65 and then 129 points, each level
    evaluating only its new points, in one more batched call.

    chi^2(t) is then a polynomial of twice the interpolant's degree, and
    everything else comes from it with no further model evaluation: the
    chi^2 curve on grid_points equally spaced C3 in bounds, which guards
    against multiple minima and boundary solutions; the minimum between
    the grid neighbours of the grid minimum, among the real roots of
    dchi^2/dt there; and each Delta-chi^2 crossing, by Brent's method on
    the first stretch between roots of dchi^2/dt that reaches the target.
    One exact model evaluation at the minimum gives the reported
    residuals and chi^2; its largest difference from the surrogate is
    reported as surrogate_error.

    The one-sigma uncertainty is half the width of the
    chi^2 = chi2_min + Delta interval, Delta = 1 for weighted fits and
    chi2_min / dof otherwise (the usual rescaling when sigma is
    unknown); it is floored at xatol.

    The model is monochromatic: beam.dv_over_u is ignored.  Data made
    with a velocity spread are fitted with a bias; on orders 1..10
    averaged over the shipped configs' 3% spread the fit gives
    C3 = 4.130 +- 0.024 (He*) and 4.116 +- 0.015 (Ne*) against a true
    4.1 (ROADMAP.md: fit and synthesise the model that made the data).

    Raises
    ------
    FitFailureError
        The interpolant's tail is still above tol * max|R| at 129 points,
        or a Delta-chi^2 crossing search does not converge.
    MultimodalObjectiveError
        More than one strict local minimum on the grid.
    BoundarySolutionError
        Grid minimum at an endpoint of bounds, or the minimum within
        xatol of one.
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

    # x in [-1, 1] maps linearly onto t = C3^(1/6) in bounds
    t_mid = 0.5 * (hi ** (1 / 6) + lo ** (1 / 6))
    t_half = 0.5 * (hi ** (1 / 6) - lo ** (1 / 6))

    def c3_at(x):
        return (t_mid + t_half * x) ** 6

    thetas = _order_thetas(observed.orders, beam.wavelength, geometry.period)

    def model(xs):
        potentials = [Potential(float(c3)) for c3 in c3_at(xs)]
        return _order_intensity_sets(potentials, geometry,
                                     [beam] * len(potentials), thetas, tol)[0]

    values = None
    for n in _CHEB_LEVELS:
        nodes = np.cos(np.pi / n * np.arange(n + 1))
        if values is None:
            values = model(nodes)
        else:  # the last level's points are this level's even ones
            nested = np.empty((n + 1, values.shape[1]))
            nested[::2] = values
            nested[1::2] = model(nodes[1::2])
            values = nested
        coeffs = _cheb_coeffs(values)
        if np.abs(coeffs[-3:]).max() <= tol * np.abs(values).max():
            break
    else:
        raise FitFailureError(
            f"model interpolant in C3^(1/6) on [{lo:.4g}, {hi:.4g}] did not "
            f"converge at {n + 1} Chebyshev points")

    # chi^2 has degree 2n: take it from its values at the 2n + 1 points
    r2 = robs - _cosines(2 * n, 2 * n + 1, n + 1) @ coeffs
    chi2_coeffs = _cheb_coeffs((weights * r2 * r2).sum(axis=1)[:, None])[:, 0]

    def chi2(x):
        return _cheb_values(chi2_coeffs, x)

    grid = np.linspace(lo, hi, int(grid_points))
    grid_x = np.clip((grid ** (1 / 6) - t_mid) / t_half, -1.0, 1.0)
    curve = chi2(grid_x)
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

    # real roots in (-1, 1), ascending as chebroots sorts them
    crit = cheb.chebroots(cheb.chebder(chi2_coeffs))
    crit = crit.real[(crit.imag == 0) & (np.abs(crit.real) < 1)]
    xa, xb = grid_x[i0 - 1], grid_x[i0 + 1]
    cands = np.concatenate(([xa, xb], crit[(crit > xa) & (crit < xb)]))
    cand_chi2 = chi2(cands)
    x_hat = float(cands[np.argmin(cand_chi2)])
    chi2_min = float(cand_chi2.min())
    c3_hat = float(c3_at(x_hat))
    if min(c3_hat - lo, hi - c3_hat) < xatol:
        raise BoundarySolutionError(
            f"refined minimum {c3_hat:.4g} sits within xatol of a search "
            "bound; widen bounds")

    dof = max(len(observed.orders) - 1, 1)
    delta = 1.0 if weighted else max(chi2_min, 1e-30) / dof
    target = chi2_min + delta

    def half_width(side):
        # chi^2 is monotone between its critical points, so the first
        # stretch that ends at or above the target holds the crossing
        # (one scalar evaluation per point, so that the root search sees
        # the same signs at the stretch's ends)
        def excess(x):
            return float(chi2(x)) - target

        beyond = crit[(crit - x_hat) * side > 0][::side]
        ends = np.concatenate(([x_hat], beyond, [side]))
        first = next((i for i, x in enumerate(ends) if excess(x) >= 0), None)
        if first is None:
            return abs((hi if side > 0 else lo) - c3_hat)
        if first == 0:  # the target is within rounding of chi2_min
            return 0.0
        a, b = sorted((ends[first - 1], ends[first]))
        return abs(c3_at(_brent_root(excess, a, b, 1e-13)) - c3_hat)

    uncertainty = max(0.5 * (half_width(1) + half_width(-1)), xatol)
    exact = intensities_for_orders(Potential(c3_hat), geometry, beam,
                                   observed.orders, tol).intensity
    residuals = robs - exact
    return C3FitResult(
        c3=c3_hat, uncertainty=float(uncertainty),
        chi2=float(np.sum(weights * residuals**2)), orders=observed.orders,
        residuals=residuals, evaluations=len(values) + 1, degree=n,
        surrogate_error=float(np.abs(exact - _cheb_values(coeffs, x_hat))
                              .max()))


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
