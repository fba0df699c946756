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
    bound_limited is True when a Delta-chi^2 crossing fell back to a
    search bound, so that the uncertainty is cut there.
    """

    c3: float
    uncertainty: float
    chi2: float
    orders: tuple
    residuals: np.ndarray
    evaluations: int
    degree: int
    surrogate_error: float
    bound_limited: bool


def _strict_local_minima(values):
    """Indices of interior strict local minima of a sampled curve."""
    values = np.asarray(values, dtype=float)
    hits = []
    for i in range(1, len(values) - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            hits.append(i)
    return hits


# degrees of the nested Chebyshev ladder in t = C3^(1/6), each twice the last
_CHEB_LEVELS = (32, 64, 128)
# equally spaced C3 at which fit_c3 checks chi^2 for several minima
_GRID_POINTS = 25
# meV nm^3: the floor of fit_c3's uncertainty, and the least distance of its
# minimum from a search bound
_XATOL = 1e-3


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


def fit_c3(observed, geometry, beam, bounds=(0.0, 20.0), tol=1e-8):
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
    chi^2 curve on 25 equally spaced C3 in bounds, which guards against
    multiple minima and boundary solutions; the minimum between the grid
    neighbours of the grid minimum, among the real roots of dchi^2/dt
    there; and each Delta-chi^2 crossing, by Newton steps on chi^2 and
    dchi^2/dt, guarded by bisection, in the first stretch between roots
    of dchi^2/dt that reaches the target (the search bound if none does).
    One exact model evaluation at the minimum gives the reported
    residuals and chi^2; its largest difference from the surrogate is
    reported as surrogate_error.

    The one-sigma uncertainty is half the width of the
    chi^2 = chi2_min + Delta interval, Delta = 1 for weighted fits and
    chi2_min / dof otherwise (the usual rescaling when sigma is
    unknown); it is cut at the bounds, which sets bound_limited, and
    floored at 1e-3 meV nm^3.

    The model is monochromatic: beam.dv_over_u is ignored.  Data made
    with a velocity spread are fitted with a bias: an unweighted fit to
    orders 1..10 of the 11-node velocity average over the shipped
    configs' 3% spread gives C3 = 4.1303 +- 0.024 (He*, true 4.1) and
    2.8144 +- 0.013 (Ne*, true 2.8) (ROADMAP.md: fit and synthesise the
    model that made the data).

    Raises
    ------
    FitFailureError
        The interpolant's tail is still above tol * max|R| at 129 points.
    MultimodalObjectiveError
        More than one strict local minimum on the grid.
    BoundarySolutionError
        Grid minimum at an endpoint of bounds, or the minimum within
        1e-3 of one.
    InvalidInputError
        Fewer than three observed orders, or malformed bounds.
    """
    _require(len(observed.orders) >= 3,
             "need at least three orders to constrain C3")
    lo, hi = float(bounds[0]), float(bounds[1])
    _require(_finite([lo, hi]) and 0 <= lo < hi, "bounds must satisfy 0 <= lo < hi")

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

    grid = np.linspace(lo, hi, _GRID_POINTS)
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
    dchi2_coeffs = cheb.chebder(chi2_coeffs)
    crit = cheb.chebroots(dchi2_coeffs)
    crit = crit.real[(crit.imag == 0) & (np.abs(crit.real) < 1)]
    xa, xb = grid_x[i0 - 1], grid_x[i0 + 1]
    cands = np.concatenate(([xa, xb], crit[(crit > xa) & (crit < xb)]))
    cand_chi2 = chi2(cands)
    x_hat = float(cands[np.argmin(cand_chi2)])
    chi2_min = float(cand_chi2.min())
    c3_hat = float(c3_at(x_hat))
    if min(c3_hat - lo, hi - c3_hat) < _XATOL:
        raise BoundarySolutionError(
            f"refined minimum {c3_hat:.4g} sits within {_XATOL:g} of a "
            "search bound; widen bounds")

    dof = max(len(observed.orders) - 1, 1)
    delta = 1.0 if weighted else max(chi2_min, 1e-30) / dof
    target = chi2_min + delta

    # The crossing above x_hat (k = 0) and below it (k = 1) lies between
    # a[k] and b[k], with chi^2(a[k]) < target <= chi^2(b[k]): chi^2 is
    # monotone between its critical points, so that is the first stretch
    # whose outer end reaches the target.  The stretch shrinks to x_hat if
    # chi^2(x_hat) already does, and to the bound if no stretch does.
    a, b = [], []
    bound_limited = False
    for side in (1, -1):
        ends = np.concatenate(
            ([x_hat], crit[(crit - x_hat) * side > 0][::side], [side]))
        reach = np.flatnonzero(chi2(ends) >= target)
        if reach.size:
            a.append(float(ends[max(reach[0] - 1, 0)]))
            b.append(float(ends[reach[0]]))
        else:
            a.append(float(side))
            b.append(float(side))
            bound_limited = True
    # Newton steps from the midpoints, with chi^2 and its derivative on both
    # sides from one evaluation per step.  A step that would leave the
    # stretch, or that is not below half the step before last, becomes a
    # bisection (rtsafe, Numerical Recipes 9.4), so the search ends; it
    # stops at a step of 1e-13 in x.
    both = np.stack((chi2_coeffs, np.append(dchi2_coeffs, 0.0)), axis=1)
    x = [0.5 * (a[k] + b[k]) for k in (0, 1)]
    before = [b[k] - a[k] for k in (0, 1)]
    last = list(before)
    active = [0, 1]
    while active:
        f_df = _cheb_values(both, [x[k] for k in active]).tolist()
        for k, (f, df) in zip(active, f_df):
            f -= target
            if f < 0:
                a[k] = x[k]
            else:
                b[k] = x[k]
            new = x[k] - f / df if df else math.inf
            if not ((new - a[k]) * (new - b[k]) < 0
                    and abs(new - x[k]) < 0.5 * abs(before[k])):
                new = 0.5 * (a[k] + b[k])
            before[k], last[k] = last[k], new - x[k]
            x[k] = new
        active = [k for k in active if abs(last[k]) > 1e-13]

    uncertainty = max(0.5 * (c3_at(x[0]) - c3_at(x[1])), _XATOL)
    exact = intensities_for_orders(Potential(c3_hat), geometry, beam,
                                   observed.orders, tol).intensity
    residuals = robs - exact
    return C3FitResult(
        c3=c3_hat, uncertainty=float(uncertainty),
        chi2=float(np.sum(weights * residuals**2)), orders=observed.orders,
        residuals=residuals, evaluations=len(values) + 1, degree=n,
        surrogate_error=float(np.abs(exact - _cheb_values(coeffs, x_hat))
                              .max()),
        bound_limited=bound_limited)


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
