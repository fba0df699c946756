import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwgrating import (
    AngularScan,
    BoundarySolutionError,
    FitFailureError,
    InvalidInputError,
    MissingPeakError,
    MultimodalObjectiveError,
    Potential,
    diffraction_angle,
    fit_c3,
    grating_factor,
    intensities_for_orders,
    scan_order_intensities,
    synthesize_orders,
    synthesize_scan,
)
from vdwgrating import grating, inference
from vdwgrating.cli import _scan_grid
from vdwgrating.config import load_config
from vdwgrating.inference import _strict_local_minima


class TestScanOrderIntensities:
    """One-period trapezoid areas of an N-slit scan."""

    N = 100

    def _scan(self, geometry, beam, envelope, background=0.0, points=6001,
              x_range=(0.5, 3.5), noise_seed=None):
        """Scan of orders 1..3: envelope[n - 1] (constant over order n's
        window) times the N-slit factor, plus a flat background, on a grid
        uniform in x = (pi d / lambda) sin(theta)."""
        x = math.pi * np.linspace(*x_range, points)
        angles = np.arcsin(x * beam.wavelength / (math.pi * geometry.period))
        d2 = grating_factor(angles, self.N, beam.wavelength,
                            geometry.period) ** 2
        order = np.clip(np.rint(x / math.pi), 1, 3).astype(int)
        y = np.asarray(envelope, dtype=float)[order - 1] * d2 + background
        if noise_seed is not None:
            rng = np.random.default_rng(noise_seed)
            y = np.clip(y + np.sqrt(np.maximum(y, 1.0))
                        * rng.standard_normal(y.size), 0.0, None)
        return AngularScan(angles, y, n_slits=self.N)

    def test_recovers_known_areas(self, geometry, he_beam):
        # the N-slit factor integrates to N pi over each period, which
        # the trapezoid rule on uniform samples gets to rounding
        envelope = np.array([50.0, 20.0, 8.0])
        scan = self._scan(geometry, he_beam, envelope)
        oi = scan_order_intensities(scan, (1, 2, 3), geometry, he_beam)
        assert oi.orders == (1, 2, 3)
        np.testing.assert_allclose(oi.intensity, envelope / envelope.sum(),
                                   rtol=1e-6)
        assert np.all(oi.sigma > 0)

    def test_recovers_with_poisson_noise(self, geometry, he_beam):
        envelope = np.array([500.0, 200.0, 80.0])
        scan = self._scan(geometry, he_beam, envelope, noise_seed=3)
        oi = scan_order_intensities(scan, (1, 2, 3), geometry, he_beam)
        assert np.all(np.abs(oi.intensity - envelope / envelope.sum())
                      < 5 * oi.sigma)

    def test_order_subset_normalizes_over_it(self, geometry, he_beam):
        envelope = np.array([50.0, 20.0, 8.0])
        scan = self._scan(geometry, he_beam, envelope)
        oi = scan_order_intensities(scan, (1, 3), geometry, he_beam)
        np.testing.assert_allclose(oi.intensity, [50 / 58, 8 / 58],
                                   rtol=1e-6)

    def test_flat_scan_reports_missing_peaks(self, geometry, he_beam):
        scan = self._scan(geometry, he_beam, [0.0, 0.0, 0.0], background=80.0)
        with pytest.raises(MissingPeakError) as err:
            scan_order_intensities(scan, (1, 2), geometry, he_beam)
        assert len(err.value.centers) == 2

    def test_one_absent_peak_is_named(self, geometry, he_beam):
        scan = self._scan(geometry, he_beam, [50.0, 0.0, 8.0],
                          background=100.0)
        with pytest.raises(MissingPeakError) as err:
            scan_order_intensities(scan, (1, 2, 3), geometry, he_beam)
        theta_2 = diffraction_angle(2, he_beam.wavelength, geometry.period)
        assert err.value.centers == (pytest.approx(theta_2),)

    def test_too_few_samples_rejected(self, geometry, he_beam):
        # 91 samples a window at N = 100: the trapezoid would alias the
        # fringes
        scan = self._scan(geometry, he_beam, [50.0, 20.0, 8.0], points=271)
        with pytest.raises(InvalidInputError, match="n_slits"):
            scan_order_intensities(scan, (1, 2, 3), geometry, he_beam)

    def test_window_edge_must_be_reached(self, geometry, he_beam):
        envelope = [50.0, 20.0, 8.0]
        h = 3.0 / 6000  # grid spacing in units of pi
        short = self._scan(geometry, he_beam, envelope,
                           x_range=(0.5 + 1.5 * h, 3.5))
        with pytest.raises(InvalidInputError, match="order 1"):
            scan_order_intensities(short, (1, 2, 3), geometry, he_beam)
        # within one sample spacing of the edge is enough
        near = self._scan(geometry, he_beam, envelope,
                          x_range=(0.5 + 0.5 * h, 3.5 - 0.5 * h))
        scan_order_intensities(near, (1, 2, 3), geometry, he_beam)
        with pytest.raises(InvalidInputError, match="order 4"):
            scan_order_intensities(near, (2, 3, 4), geometry, he_beam)

    def test_rejects_unordered_orders(self, geometry, he_beam):
        scan = self._scan(geometry, he_beam, [50.0, 20.0, 8.0])
        for orders in [(1, 1, 2), (2, 1), ()]:
            with pytest.raises(InvalidInputError):
                scan_order_intensities(scan, orders, geometry, he_beam)

    @pytest.mark.parametrize("cfg_path", ["he_config_path",
                                          "ne_config_path"])
    def test_shipped_scans_match_model(self, cfg_path, request):
        # the command line's 4001-point grid over +-10.5 orders
        cfg = load_config(request.getfixturevalue(cfg_path))
        scan = synthesize_scan(cfg.potential, cfg.geometry, cfg.beam,
                               _scan_grid(cfg, 4001), n_slits=100,
                               tol=cfg.tolerance)
        orders = tuple(range(1, 11))
        observed = scan_order_intensities(scan, orders, cfg.geometry,
                                          cfg.beam)
        model = intensities_for_orders(cfg.potential, cfg.geometry, cfg.beam,
                                       orders, cfg.tolerance)
        np.testing.assert_allclose(observed.intensity, model.intensity,
                                   rtol=5e-3)
        res = fit_c3(observed, cfg.geometry, cfg.beam, tol=cfg.tolerance)
        assert res.c3 == pytest.approx(cfg.potential.c3, rel=0.01)


class TestFitC3:
    @pytest.mark.parametrize("true_c3", [0.5, 2.0, 10.0])
    def test_noiseless_roundtrip(self, geometry, he_beam, true_c3):
        orders = tuple(range(1, 11))
        observed = synthesize_orders(Potential(true_c3), geometry, he_beam,
                                     orders, noise_fraction=0.0)
        res = fit_c3(observed, geometry, he_beam)
        assert abs(res.c3 - true_c3) / true_c3 < 5e-3
        assert res.uncertainty > 0
        assert res.evaluations >= 25

    @pytest.mark.parametrize("config, beta_deg, orders, true_c3", [
        ("he_config_path", 60.0, tuple(range(1, 11)), 4.1),
        ("he_config_path", 30.0, (1, 2, 4, 6, 8), 4.1),
        ("he_config_path", 30.0, tuple(range(1, 11)), 1.0),
        ("ne_config_path", 11.0, tuple(range(1, 11)), 1.0),
    ])
    def test_noiseless_uncertainty_is_floor(self, config, beta_deg, orders,
                                            true_c3, request):
        # unweighted, Delta = chi2_min / dof sits at rounding level, so the
        # crossings fall next to the minimum and the 1e-3 floor is reported
        cfg = load_config(request.getfixturevalue(config))
        geom = dataclasses.replace(cfg.geometry,
                                   wedge_angle=math.radians(beta_deg))
        observed = synthesize_orders(Potential(true_c3), geom, cfg.beam,
                                     orders, tol=cfg.tolerance)
        res = fit_c3(observed, geom, cfg.beam, tol=cfg.tolerance)
        assert res.uncertainty == 1e-3

    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_bound_limited_uncertainty(self, config, request):
        # bounds +-0.01 around the minimum, inside its Delta-chi^2
        # interval: both crossings are the search bounds
        cfg = load_config(request.getfixturevalue(config))
        observed = synthesize_orders(cfg.potential, cfg.geometry, cfg.beam,
                                     tuple(range(1, 11)), noise_fraction=0.01,
                                     seed=3, tol=cfg.tolerance)
        wide = fit_c3(observed, cfg.geometry, cfg.beam, tol=cfg.tolerance)
        assert wide.uncertainty > 0.02
        assert not wide.bound_limited
        lo, hi = wide.c3 - 0.01, wide.c3 + 0.01
        res = fit_c3(observed, cfg.geometry, cfg.beam, bounds=(lo, hi),
                     tol=cfg.tolerance)
        assert res.uncertainty == pytest.approx(0.5 * (hi - lo), rel=1e-12)
        assert res.bound_limited

    def test_noisy_recovery_within_uncertainty_scale(self, geometry,
                                                     he_beam):
        orders = tuple(range(1, 11))
        observed = synthesize_orders(Potential(4.1), geometry, he_beam,
                                     orders, noise_fraction=0.01, seed=11)
        res = fit_c3(observed, geometry, he_beam)
        assert abs(res.c3 - 4.1) / 4.1 < 0.05
        assert res.chi2 < 50.0
        assert res.residuals.shape == (10,)

    def test_boundary_minimum_raises(self, geometry, he_beam):
        orders = tuple(range(1, 11))
        observed = synthesize_orders(Potential(10.0), geometry, he_beam,
                                     orders)
        with pytest.raises(BoundarySolutionError):
            fit_c3(observed, geometry, he_beam, bounds=(12.0, 20.0))

    def test_needs_three_orders(self, geometry, he_beam):
        observed = synthesize_orders(Potential(4.1), geometry, he_beam,
                                     (1, 2))
        with pytest.raises(InvalidInputError):
            fit_c3(observed, geometry, he_beam)

    def test_model_subset_consistency(self, geometry, he_beam):
        # fitting a strict subset of orders still recovers C3 because
        # the model renormalizes over the same subset
        orders = (1, 2, 4, 6, 8)
        observed = synthesize_orders(Potential(4.1), geometry, he_beam,
                                     orders)
        res = fit_c3(observed, geometry, he_beam)
        assert abs(res.c3 - 4.1) < 0.02

    def test_grid_in_one_batched_call(self, he_config_path, ne_config_path,
                                      monkeypatch):
        # on both shipped configs, the 33 Chebyshev points share one
        # quadrature call, and the exact model at the minimum is the fit's
        # one _slit_integrals call (a batch of one inside)
        batch, single = grating._slit_batch, grating._slit_integrals
        for path in (he_config_path, ne_config_path):
            cfg, geometry, observed = _shipped_orders(path)
            sizes, singles = [], []
            monkeypatch.setattr(grating, "_slit_batch", lambda c3s, *args: (
                sizes.append(len(c3s)) or batch(c3s, *args)))
            monkeypatch.setattr(grating, "_slit_integrals", lambda *args: (
                singles.append(args) or single(*args)))
            res = fit_c3(observed, geometry, cfg.beam, tol=cfg.tolerance)
            monkeypatch.undo()
            assert sizes == [33, 1] and len(singles) == 1
            assert res.evaluations == 34 and res.degree == 32

    @pytest.mark.parametrize("beta_deg", [0.0, 15.0, 30.0])
    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_matches_exact_minimum(self, config, beta_deg, request):
        from scipy.optimize import brentq, minimize_scalar
        cfg, geometry, observed = _shipped_orders(
            request.getfixturevalue(config), beta_deg)
        res = fit_c3(observed, geometry, cfg.beam, tol=cfg.tolerance)

        def chi2(c3):
            model = intensities_for_orders(Potential(c3), geometry, cfg.beam,
                                           observed.orders, cfg.tolerance)
            r = (observed.intensity - model.intensity) / observed.sigma
            return float(np.sum(r * r))

        c3 = cfg.potential.c3
        best = minimize_scalar(chi2, bounds=(0.8 * c3, 1.2 * c3),
                               method="bounded", options={"xatol": 1e-10})
        assert abs(res.c3 - best.x) < 1e-6
        target = best.fun + 1.0
        upper = brentq(lambda x: chi2(x) - target, best.x, best.x + 1.0)
        lower = brentq(lambda x: chi2(x) - target, best.x - 1.0, best.x)
        assert res.uncertainty == pytest.approx(0.5 * (upper - lower),
                                                rel=1e-3)
        assert res.surrogate_error <= cfg.tolerance

    def test_grid_checks_match_exact_grid(self, geometry, he_beam, ne_beam):
        # the surrogate's chi^2 on the 25-point C3 grid raises exactly where
        # the exact model's does, over the draws and bounds of the tests
        # above plus narrow bounds and the flat wall, where few orders give
        # several minima
        rng = np.random.default_rng(2026)
        seen = set()
        for beam, beta_deg, bounds, orders in itertools.product(
                (he_beam, ne_beam), (0.0, 11.0),
                ((0.0, 20.0), (12.0, 20.0), (3.5, 4.5)),
                ((1, 2, 3), (1, 2, 4, 6, 8), tuple(range(1, 11)))):
            geom = dataclasses.replace(geometry,
                                       wedge_angle=math.radians(beta_deg))
            observed = synthesize_orders(
                Potential(float(rng.choice([0.5, 4.1, 10.0]))), geom, beam,
                orders, noise_fraction=0.01, seed=int(rng.integers(100)))
            grid = np.linspace(*bounds, 25)
            model = np.array([intensities_for_orders(
                Potential(c3), geom, beam, orders).intensity for c3 in grid])
            curve = np.sum(((observed.intensity - model) / observed.sigma)
                           ** 2, axis=1)
            expected = None
            if len(_strict_local_minima(curve)) > 1:
                expected = MultimodalObjectiveError
            elif int(np.argmin(curve)) in (0, grid.size - 1):
                expected = BoundarySolutionError
            try:
                fit_c3(observed, geom, beam, bounds=bounds)
                raised = None
            except (MultimodalObjectiveError, BoundarySolutionError) as exc:
                raised = type(exc)
            assert raised is expected, (beam.mass_u, beta_deg, bounds, orders)
            seen.add(expected)
        assert seen == {None, MultimodalObjectiveError, BoundarySolutionError}

    def test_nested_levels_reuse_points(self, geometry, he_beam,
                                        monkeypatch):
        # a ladder started at degree 8 evaluates only the new points of
        # each level and lands on the same 33 points as the default one
        observed = synthesize_orders(Potential(4.1), geometry, he_beam,
                                     tuple(range(1, 11)), noise_fraction=0.01,
                                     seed=11)
        direct = fit_c3(observed, geometry, he_beam)
        sizes = []
        batch = grating._slit_batch
        monkeypatch.setattr(grating, "_slit_batch", lambda c3s, *args: (
            sizes.append(len(c3s)) or batch(c3s, *args)))
        monkeypatch.setattr(inference, "_CHEB_LEVELS", (8, 16, 32))
        res = fit_c3(observed, geometry, he_beam)
        assert sizes == [9, 8, 16, 1]
        assert (res.degree, res.evaluations) == (32, 34)
        assert abs(res.c3 - direct.c3) < 1e-9
        assert res.uncertainty == pytest.approx(direct.uncertainty, rel=1e-9)

    def test_unconverged_surrogate_is_fit_failure(self, geometry, he_beam,
                                                  monkeypatch):
        # a degree-4 interpolant cannot reach tol * max|R|
        monkeypatch.setattr(inference, "_CHEB_LEVELS", (4,))
        observed = synthesize_orders(Potential(4.1), geometry, he_beam,
                                     tuple(range(1, 11)), noise_fraction=0.01,
                                     seed=11)
        with pytest.raises(FitFailureError, match="did not converge"):
            fit_c3(observed, geometry, he_beam)


def _shipped_orders(path, beta_deg=None):
    """A shipped config, its geometry (with beta_deg if given) and its synth
    orders 1..n_max at 1% noise."""
    cfg = load_config(path)
    geometry = cfg.geometry
    if beta_deg is not None:
        geometry = dataclasses.replace(geometry,
                                       wedge_angle=math.radians(beta_deg))
    observed = synthesize_orders(cfg.potential, geometry, cfg.beam,
                                 tuple(range(1, cfg.n_max + 1)),
                                 noise_fraction=0.01, seed=cfg.seed,
                                 tol=cfg.tolerance)
    return cfg, geometry, observed


class TestStrictLocalMinima:
    def test_single_minimum(self):
        assert _strict_local_minima([3, 1, 2, 4]) == [1]

    def test_two_minima(self):
        assert _strict_local_minima([3, 1, 2, 0.5, 4]) == [1, 3]

    def test_plateau_not_strict(self):
        assert _strict_local_minima([2, 1, 1, 2]) == []

    def test_monotone_has_none(self):
        assert _strict_local_minima([1, 2, 3, 4]) == []


class TestSynthesize:
    def test_orders_reproducible(self, potential, geometry, he_beam):
        a = synthesize_orders(potential, geometry, he_beam, range(1, 11),
                              noise_fraction=0.01, seed=42)
        b = synthesize_orders(potential, geometry, he_beam, range(1, 11),
                              noise_fraction=0.01, seed=42)
        assert np.array_equal(a.intensity, b.intensity)
        c = synthesize_orders(potential, geometry, he_beam, range(1, 11),
                              noise_fraction=0.01, seed=43)
        assert not np.array_equal(a.intensity, c.intensity)

    def test_zero_noise_is_exact_model(self, potential, geometry, he_beam):
        clean = intensities_for_orders(potential, geometry, he_beam,
                                       range(1, 11))
        synth = synthesize_orders(potential, geometry, he_beam,
                                  range(1, 11), noise_fraction=0.0, seed=9)
        assert np.array_equal(clean.intensity, synth.intensity)

    def test_sigma_tracks_noise_level(self, potential, geometry, he_beam):
        synth = synthesize_orders(potential, geometry, he_beam,
                                  range(1, 11), noise_fraction=0.02, seed=1)
        assert synth.sigma is not None
        assert np.all(synth.sigma > 0)

    def test_scan_reproducible_and_scaled(self, potential, geometry,
                                          he_beam):
        lam = he_beam.wavelength
        grid = np.linspace(-4.7e-3, 4.7e-3, 1201)
        a = synthesize_scan(potential, geometry, he_beam, grid,
                            noise_fraction=0.01, seed=5, peak_counts=1e4)
        b = synthesize_scan(potential, geometry, he_beam, grid,
                            noise_fraction=0.01, seed=5, peak_counts=1e4)
        assert np.array_equal(a.values, b.values)
        assert np.all(a.values >= 0)
        clean = synthesize_scan(potential, geometry, he_beam, grid,
                                noise_fraction=0.0, seed=5, peak_counts=1e4)
        assert float(clean.values.max()) == pytest.approx(1e4, rel=1e-12)
        assert lam > 0

    @given(noise=st.floats(0.0, 0.3), seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_synthesized_orders_stay_normalized(self, noise, seed, potential,
                                                geometry, he_beam):
        oi = synthesize_orders(potential, geometry, he_beam, range(1, 6),
                               noise_fraction=noise, seed=seed)
        assert float(oi.intensity.sum()) == pytest.approx(1.0, abs=1e-9)


class TestScanPipeline:
    def test_scan_to_c3_roundtrip(self, potential, geometry, he_beam):
        # synthesize a positive-side scan, take the areas of peaks 1..10,
        # fit; closes the loop through every inference stage
        lam = he_beam.wavelength
        d = geometry.period
        orders = tuple(range(1, 11))
        grid = np.linspace(0.5 * lam / d, 10.5 * lam / d, 9001)
        scan = synthesize_scan(potential, geometry, he_beam, grid,
                               n_slits=100, noise_fraction=0.01, seed=2026,
                               peak_counts=1e6)
        observed = scan_order_intensities(scan, orders, geometry, he_beam)
        res = fit_c3(observed, geometry, he_beam)
        assert abs(res.c3 - potential.c3) / potential.c3 < 0.05

    def test_roundtrip_demo_recovers_c3(self):
        script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                              "roundtrip_demo.py")
        out = subprocess.run([sys.executable, script], capture_output=True,
                             text=True, check=True, timeout=300).stdout
        fitted = re.findall(r"(order|scan)-level loop: .*fitted (\S+)", out)
        assert [loop for loop, _ in fitted] == ["order", "scan"]
        for _, c3 in fitted:
            assert float(c3) == pytest.approx(4.1, rel=0.01)
