import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vdwgrating import (
    AngularScan,
    BeamState,
    EvanescentOrderError,
    GratingGeometry,
    InvalidInputError,
    OrderIntensities,
    Potential,
    QuadratureError,
    angular_pattern,
    de_broglie_wavelength,
    diffraction_angle,
    grating_factor,
    intensities_for_orders,
    order_intensities,
    slit_amplitude,
    transmission_factor,
    velocity_averaged_intensities,
    wall_phase,
)
from vdwgrating import grating
from vdwgrating.cli import _scan_grid
from vdwgrating.config import load_config
from vdwgrating.grating import _slit_integrals

from oracles import SlitReference, bare_slit_amplitude, \
    phase_by_line_integral, slit_integral_mpmath


# ---------------------------------------------------------------------------
# Domain types


class TestTypes:
    def test_geometry_rejects_wide_slit(self):
        with pytest.raises(InvalidInputError):
            GratingGeometry(period=100.0, slit_width=100.0, bar_depth=53.0,
                            wedge_angle=0.1)

    def test_geometry_rejects_steep_wedge(self):
        with pytest.raises(InvalidInputError):
            GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                            wedge_angle=math.pi / 2)

    def test_geometry_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            GratingGeometry(period=float("nan"), slit_width=66.8,
                            bar_depth=53.0, wedge_angle=0.1)

    def test_beam_rejects_bad_velocity(self):
        with pytest.raises(InvalidInputError):
            BeamState(mass_u=4.0, velocity=0.0)

    def test_beam_rejects_bad_spread(self):
        with pytest.raises(InvalidInputError):
            BeamState(mass_u=4.0, velocity=1000.0, dv_over_u=1.0)

    def test_potential_rejects_negative_c3(self):
        with pytest.raises(InvalidInputError):
            Potential(c3=-0.1)

    def test_order_intensities_requires_unit_sum(self):
        with pytest.raises(InvalidInputError):
            OrderIntensities((0, 1), np.array([0.5, 0.6]))

    def test_order_intensities_requires_increasing_orders(self):
        with pytest.raises(InvalidInputError):
            OrderIntensities((1, 0), np.array([0.5, 0.5]))

    def test_from_raw_normalizes(self):
        oi = OrderIntensities.from_raw((0, 1, 2), [2.0, 1.0, 1.0])
        assert oi.intensity.sum() == pytest.approx(1.0, abs=1e-15)
        assert oi[0] == pytest.approx(0.5)

    def test_scan_requires_increasing_angles(self):
        with pytest.raises(InvalidInputError):
            AngularScan(np.array([0.0, 0.0, 1.0]), np.zeros(3))


# ---------------------------------------------------------------------------
# Kinematics


class TestKinematics:
    def test_wavelength_value_he(self, he_beam):
        # h / (m v) from the exact SI h; the library carries h in eV s
        # rounded to 10 digits, hence the 1e-9 comparison
        h_js = 6.62607015e-34
        m_kg = 4.002602 * 1.66053906660e-27
        lam_nm = h_js / (m_kg * 2347.0) * 1e9
        assert de_broglie_wavelength(4.002602, 2347.0) == \
            pytest.approx(lam_nm, rel=1e-9)
        assert he_beam.wavelength == pytest.approx(0.0424768, rel=1e-5)

    def test_wavelength_cached_per_beam(self, he_beam):
        # the property keeps the function's value; a replaced beam
        # computes its own
        assert he_beam.wavelength == de_broglie_wavelength(
            he_beam.mass_u, he_beam.velocity)
        slower = dataclasses.replace(he_beam, velocity=he_beam.velocity / 2)
        assert slower.wavelength == 2 * he_beam.wavelength

    def test_wavevector(self, he_beam):
        assert he_beam.wavevector == \
            pytest.approx(2 * math.pi / he_beam.wavelength, rel=1e-15)

    def test_diffraction_angle_matches_grating_equation(self, he_beam,
                                                        geometry):
        for n in range(-10, 11):
            theta = diffraction_angle(n, he_beam.wavelength, geometry.period)
            assert math.sin(theta) == pytest.approx(
                n * he_beam.wavelength / geometry.period, abs=1e-16)

    def test_evanescent_order_raises(self):
        with pytest.raises(EvanescentOrderError):
            diffraction_angle(3, wavelength=40.0, period=100.0)

    @given(m=st.floats(0.5, 300), v=st.floats(10, 1e5))
    @settings(max_examples=50, deadline=None)
    def test_wavelength_inverse_in_mass_and_velocity(self, m, v):
        lam = de_broglie_wavelength(m, v)
        assert lam * m * v == pytest.approx(
            de_broglie_wavelength(1.0, 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Wall phase


class TestWallPhase:
    def test_value_at_10nm(self, potential, geometry, he_beam):
        # C3 = 4.1 meV nm^3, t = 53 nm, beta = 11 deg, v = 2347 m/s
        assert wall_phase(10.0, potential, geometry, he_beam) == \
            pytest.approx(5.1705896e-2, rel=1e-7)

    @pytest.mark.parametrize("beta_deg", [0.0, 11.0, 30.0])
    def test_matches_line_integral(self, potential, he_beam, beta_deg):
        # The closed form must agree with adaptive quadrature of the
        # defining straight-line integral of -C3/l^3 across the bar.
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=math.radians(beta_deg))
        for zeta in np.geomspace(0.05, 33.0, 20):
            expected, quad_err = phase_by_line_integral(
                zeta, potential.c3, geom.bar_depth, geom.wedge_angle,
                he_beam.velocity)
            got = wall_phase(zeta, potential, geom, he_beam)
            assert got == pytest.approx(expected,
                                        rel=1e-6, abs=10 * quad_err)

    def test_square_wall_closed_form(self, potential, he_beam):
        # beta = 0 collapses the phase to C3 t / (hbar v zeta^3)
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=0.0)
        hbar_ev_s = 6.582119569e-16
        a = potential.c3 * 1e-3 * geom.bar_depth / \
            (hbar_ev_s * he_beam.velocity * 1e9)
        for zeta in np.geomspace(0.01, 33.0, 50):
            assert wall_phase(zeta, potential, geom, he_beam) == \
                pytest.approx(a / zeta**3, rel=1e-14)

    def test_vanishes_with_c3(self, geometry, he_beam):
        assert wall_phase(5.0, Potential(0.0), geometry, he_beam) == 0.0

    def test_rejects_nonpositive_zeta(self, potential, geometry, he_beam):
        with pytest.raises(InvalidInputError):
            wall_phase(0.0, potential, geometry, he_beam)

    @given(z1=st.floats(0.01, 30.0), factor=st.floats(1.01, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_monotone_decreasing(self, z1, factor, potential, geometry,
                                 he_beam):
        assert wall_phase(z1, potential, geometry, he_beam) > \
            wall_phase(z1 * factor, potential, geometry, he_beam)

    @given(z=st.floats(0.005, 33.0),
           c3=st.floats(0.01, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_transmission_unimodular(self, z, c3, geometry, he_beam):
        tau = transmission_factor(z, Potential(c3), geometry, he_beam)
        assert abs(abs(tau) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Slit quadrature against the brute-force reference


def _reference(geometry, beam, c3):
    return SlitReference(c3, geometry.bar_depth, geometry.wedge_angle,
                         beam.velocity, geometry.slit_width)


class TestSlitQuadrature:
    @pytest.mark.slow
    def test_matches_reference_he(self, potential, geometry, he_beam):
        ref = _reference(geometry, he_beam, potential.c3)
        for n in (0, 1, 3, 5):
            b = 2 * math.pi * n / geometry.period
            got, _ = _slit_integrals(potential, geometry, he_beam,
                                     np.array([b]), 1e-8)
            expected = ref.value(b)
            assert abs(got[0] - expected) / abs(expected) < 5e-9

    @pytest.mark.slow
    def test_matches_reference_square_wall(self, potential, he_beam):
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=0.0)
        ref = _reference(geom, he_beam, potential.c3)
        b = 2 * math.pi * 3 / geom.period
        got, _ = _slit_integrals(potential, geom, he_beam, np.array([b]),
                                 1e-8)
        expected = ref.value(b)
        assert abs(got[0] - expected) / abs(expected) < 5e-9

    @pytest.mark.slow
    def test_matches_reference_ne(self, geometry, ne_beam):
        pot = Potential(2.8)
        ref = _reference(geometry, ne_beam, pot.c3)
        b = 2 * math.pi * 2 / geometry.period
        got, _ = _slit_integrals(pot, geometry, ne_beam, np.array([b]), 1e-8)
        expected = ref.value(b)
        assert abs(got[0] - expected) / abs(expected) < 5e-9

    @pytest.mark.slow
    def test_error_estimate_covers_reference_gap(self, potential, geometry,
                                                 he_beam):
        ref = _reference(geometry, he_beam, potential.c3)
        b = 2 * math.pi / geometry.period
        got, est = _slit_integrals(potential, geometry, he_beam,
                                   np.array([b]), 1e-8)
        gap = abs(got[0] - ref.value(b))
        # reference itself is only good to ~1e-9 relative
        assert gap < est[0] + 2e-9 * abs(got[0])

    def test_tolerance_halving_within_estimate(self, potential, geometry,
                                               he_beam):
        bs = 2 * math.pi * np.arange(11) / geometry.period
        v1, e1 = _slit_integrals(potential, geometry, he_beam, bs, 1e-8)
        v2, _ = _slit_integrals(potential, geometry, he_beam, bs, 5e-9)
        assert np.all(np.abs(v1 - v2) <= e1 + 1e-15 * geometry.half_width)

    @pytest.mark.slow
    @pytest.mark.parametrize("mass_u, velocity, beta_deg, c3", [
        (4.002602, 2347.0, 60.0, 0.001),
        (4.002602, 5000.0, 30.0, 0.01),
        (20.1797, 873.0, 60.0, 0.001),
        (20.1797, 5000.0, 11.0, 0.001),
    ])
    def test_weak_potential_matches_reference(self, mass_u, velocity,
                                              beta_deg, c3):
        # weak, fast corners of the envelope: phi falls to the phase
        # budget within hundredths of a nm of the wall
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=math.radians(beta_deg))
        beam = BeamState(mass_u=mass_u, velocity=velocity)
        b = 2 * math.pi / geom.period
        got, _ = _slit_integrals(Potential(c3), geom, beam, np.array([b]),
                                 1e-8)
        expected = _reference(geom, beam, c3).value(b)
        assert abs(got[0] - expected) / abs(expected) < 5e-9

    @given(c3=st.floats(0.0, 50.0), velocity=st.floats(200.0, 5000.0),
           beta_deg=st.floats(0.0, 60.0),
           mass_u=st.sampled_from([4.002602, 20.1797]),
           checked=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    @example(c3=1e-300, velocity=5000.0, beta_deg=0.0, mass_u=4.002602,
             checked=1)
    def test_envelope_sweep(self, c3, velocity, beta_deg, mass_u, checked):
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=math.radians(beta_deg))
        beam = BeamState(mass_u=mass_u, velocity=velocity)
        thetas = np.array([diffraction_angle(n, beam.wavelength, geom.period)
                           for n in range(11)])
        bs = beam.wavevector * np.sin(thetas)
        tol = 1e-8
        vals, est = _slit_integrals(Potential(c3), geom, beam, bs, tol)
        assert np.all(np.isfinite(vals))
        # |exact| <= s0/2, and est bounds the distance to it
        assert np.all(np.abs(vals) <= geom.half_width + est)
        assert np.all(est <= tol * geom.half_width)
        # one order against an independent complex-contour integral
        ref = slit_integral_mpmath(c3, geom.bar_depth, geom.wedge_angle,
                                   velocity, geom.slit_width, bs[checked])
        assert abs(vals[checked] - ref) <= est[checked]

    @pytest.mark.parametrize("beta_deg, mass_u", [(0.0, 4.002602),
                                                   (60.0, 20.1797)])
    def test_strong_potential_cost_and_value(self, beta_deg, mass_u,
                                             monkeypatch):
        # C3/v far beyond the physical envelope: phi(s0/2) is 1e3-1e4 rad,
        # so the descent path takes the whole half-slit
        nodes = []
        cos_dot = grating._cos_dot
        monkeypatch.setattr(grating, "_cos_dot", lambda bs, z, core, half: (
            nodes.append(z.size) or cos_dot(bs, z, core, half)))
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=math.radians(beta_deg))
        beam = BeamState(mass_u=mass_u, velocity=200.0)
        bs = beam.wavevector * np.sin(np.array(
            [diffraction_angle(n, beam.wavelength, geom.period)
             for n in (0, 10)]))
        vals, est = _slit_integrals(Potential(1e6), geom, beam, bs, 1e-8)
        assert max(nodes) <= 2000
        for b, val, e in zip(bs, vals, est):
            ref = slit_integral_mpmath(1e6, geom.bar_depth, geom.wedge_angle,
                                       200.0, geom.slit_width, b)
            assert abs(val - ref) <= e

    @pytest.mark.parametrize("mass_u, beta_deg, theta", [
        (4.002602, 0.0, 0.5),
        (20.1797, 60.0, 0.1),
    ])
    def test_wide_angle_matches_mpmath(self, mass_u, beta_deg, theta):
        # b s0/2 ~ 200: the far-field phase b zeta outruns the wall phase
        # well inside the slit, and cos(b (s0/2 - z)) grows off the axis
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=math.radians(beta_deg))
        beam = BeamState(mass_u=mass_u, velocity=200.0)
        b = beam.wavevector * math.sin(theta)
        tol = 1e-8
        vals, est = _slit_integrals(Potential(50.0), geom, beam,
                                    np.array([b]), tol)
        assert est[0] <= tol * geom.half_width
        ref = slit_integral_mpmath(50.0, geom.bar_depth, geom.wedge_angle,
                                   200.0, geom.slit_width, b)
        assert abs(vals[0] - ref) <= est[0]

    def test_lost_descent_path_raises(self, potential, geometry, he_beam,
                                      monkeypatch):
        # one Newton step cannot polish a point of the tapered-wall path
        monkeypatch.setattr(grating, "_NEWTON_STEPS", 1)
        with pytest.raises(QuadratureError):
            _slit_integrals(potential, geometry, he_beam, np.array([0.1]),
                            1e-8)

    @pytest.mark.parametrize("mass_u", [4.002602, 20.1797])
    def test_descent_path_is_the_right_half_plane_root(self, mass_u):
        # phi(z) = w on a tapered wall is, with x = z/c and q = A/(w c^3),
        # the quartic x^2 (x+1)^2 - q (2x+1)/2 = 0: the path point must be
        # its only root with Re x > 0
        p = np.concatenate([nodes for _, rules in grating._PASSES
                            for nodes, _ in rules])
        worst = 0.0
        for beta_deg, c3, velocity, order in itertools.product(
                (1.0, 11.0, 30.0, 60.0), (1e-3, 0.1, 4.0, 50.0, 1e4),
                (200.0, 2347.0, 5000.0), (0, 10)):
            geom = GratingGeometry(period=100.0, slit_width=66.8,
                                   bar_depth=53.0,
                                   wedge_angle=math.radians(beta_deg))
            beam = BeamState(mass_u=mass_u, velocity=velocity)
            # one item: A, s and b_max are one-row columns
            ph = grating._WallPhase(*grating._phase_constants(
                np.array([[c3]]), geom, beam.velocity))
            s = grating._split_point(
                ph, geom.half_width,
                np.array([[2 * math.pi * order / geom.period]]))
            w = ph.phi(s) + 1j * p
            z = grating._descent_path(ph, s, w)
            for zj, q in zip(z[0], (ph.a / (w * ph.c**3))[0]):
                x = np.roots([1.0, 2.0, 1.0, -q, -q / 2])
                right = x[x.real > 0]
                assert right.size == 1
                worst = max(worst, abs(zj - right[0] * ph.c) / abs(zj))
        assert worst <= 1e-12

    @pytest.mark.parametrize("config, panels", [
        # (coarse, fine) panel counts at budgets pi/2 and pi/4
        ("he_config_path", (19, 37)),
        ("ne_config_path", (18, 36)),
    ])
    def test_order_set_cost(self, config, panels, request, monkeypatch):
        # the coarse and fine passes share one mesh, one path solve and
        # one cosine matrix each for the panels and the path
        cfg = load_config(request.getfixturevalue(config))
        calls, meshes = [], []

        def counted(attr):
            f = getattr(grating, attr)

            def wrapped(*args, **kwargs):
                calls.append(attr)
                out = f(*args, **kwargs)
                if attr == "_mesh_edges":
                    meshes.append([int(np.sum(np.diff(edges) > 0))
                                   for edges in out])
                return out
            return wrapped

        for attr in ("_slit_integrals", "_cos_dot", "_invert_phase",
                     "_mesh_edges"):
            monkeypatch.setattr(grating, attr, counted(attr))
        intensities_for_orders(cfg.potential, cfg.geometry, cfg.beam,
                               range(1, 11), tol=cfg.tolerance)
        assert cfg.potential.c3 > 0
        assert calls.count("_slit_integrals") == 1
        assert calls.count("_cos_dot") == 2
        assert calls.count("_invert_phase") <= 3
        assert meshes == [list(panels)]

    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_velocity_average_cost(self, config, request, monkeypatch):
        # the 11 velocity nodes share one mesh build, one path solve and
        # one product for the path; each gets its own for the panels
        cfg = load_config(request.getfixturevalue(config))
        calls = []
        for attr in ("_mesh_edges", "_descent_path", "_cos_dot"):
            f = getattr(grating, attr)
            monkeypatch.setattr(grating, attr, lambda *args, f=f, attr=attr: (
                calls.append(attr) or f(*args)))
        velocity_averaged_intensities(cfg.potential, cfg.geometry, cfg.beam,
                                      n_max=cfg.n_max, quad_points=11,
                                      tol=cfg.tolerance)
        assert calls.count("_mesh_edges") == 1
        assert calls.count("_descent_path") == 1
        assert calls.count("_cos_dot") == 12

    @given(c3=st.floats(0.0, 50.0), velocity=st.floats(200.0, 5000.0),
           beta_deg=st.floats(0.0, 60.0),
           mass_u=st.sampled_from([4.002602, 20.1797]),
           order=st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    @example(c3=1e-300, velocity=5000.0, beta_deg=0.0, mass_u=4.002602,
             order=10)
    @example(c3=50.0, velocity=200.0, beta_deg=60.0, mass_u=20.1797,
             order=10)
    def test_mesh_panels_meet_bounds(self, c3, velocity, beta_deg, mass_u,
                                     order):
        # every fine panel keeps phi and b_max zeta within the budget, its
        # end ratio within 1 + budget/2 and its width within (s0/2 - s)/8;
        # a coarse panel, two fine ones, keeps twice each bound
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=math.radians(beta_deg))
        beam = BeamState(mass_u=mass_u, velocity=velocity)
        bs = beam.wavevector * np.sin([
            diffraction_angle(n, beam.wavelength, geom.period)
            for n in range(order + 1)])
        calls = []
        mesh_edges = grating._mesh_edges
        with pytest.MonkeyPatch.context() as m:
            m.setattr(grating, "_mesh_edges", lambda *args: (
                calls.append(args) or mesh_edges(*args)))
            _slit_integrals(Potential(c3), geom, beam, bs, 1e-8)
        ph, s, half, b_max, budget, strides = calls[0]
        # the escalation mesh on the same items
        meshes = [(mesh_edges(ph, s, half, b_max, budget, strides), budget,
                   strides),
                  (mesh_edges(ph, s, half, b_max, budget / 2, [1]),
                   budget / 2, [1])]
        slack = 1.0 + 1e-9
        a, split, bm = ph.a[0, 0], s[0, 0], b_max[0, 0]
        phi = grating._WallPhase(a, ph.c).phi
        for edges, budget, strides in meshes:
            for stride, e in zip(strides, edges):
                e = e[0]
                assert e[0] == split and e[-1] == half
                assert np.all(np.diff(e) >= 0)
                lo, hi = e[:-1][e[1:] > e[:-1]], e[1:][e[1:] > e[:-1]]
                bound = stride * budget * slack
                assert np.all(bm * (hi - lo) <= bound)
                assert np.all(hi - lo <= stride * (half - split) / 8 * slack)
                if a > 0:
                    assert np.all(phi(lo) - phi(hi) <= bound)
                    assert np.all(np.log(hi / lo) <= stride * math.log1p(
                        budget / 2) * slack)

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_stacked_cos_dot_matches_items(self, imag):
        # a stack of products over a leading item axis gives the products
        # of the items one by one, on real and on complex nodes
        rng = np.random.default_rng(3)
        bs = rng.uniform(0.0, 2.0, (3, 5))
        nodes = rng.uniform(0.0, 30.0, (3, 7))
        if imag:
            nodes = nodes + 1j * rng.uniform(-imag, imag, (3, 7))
        core = rng.normal(size=(3, 7, 2)) + 1j * rng.normal(size=(3, 7, 2))
        stacked = grating._cos_dot(bs, nodes, core, 33.4)
        for m in range(3):
            np.testing.assert_allclose(
                stacked[m], grating._cos_dot(bs[m], nodes[m], core[m], 33.4),
                rtol=1e-13, atol=1e-12)

    def test_free_slit_closed_form(self, geometry, he_beam):
        # C3 = 0 reduces f(theta) to the single-slit diffraction formula
        free = Potential(0.0)
        for n in range(0, 11):
            theta = diffraction_angle(n, he_beam.wavelength, geometry.period)
            got = slit_amplitude(theta, free, geometry, he_beam)
            expected = bare_slit_amplitude(theta, he_beam.wavelength,
                                           geometry.slit_width)
            assert got.real == pytest.approx(expected, rel=1e-10)
            assert abs(got.imag) < 1e-10 * abs(expected)

    def test_rejects_grazing_angle(self, potential, geometry, he_beam):
        with pytest.raises(InvalidInputError):
            slit_amplitude(math.pi / 2, potential, geometry, he_beam)

    def test_rejects_absurd_tolerance(self, potential, geometry, he_beam):
        with pytest.raises(InvalidInputError):
            _slit_integrals(potential, geometry, he_beam, np.array([0.1]),
                            0.5)


class TestSlitBatch:
    """One _slit_batch call against one _slit_integrals call per item."""

    @staticmethod
    def _order_rows(beams, geom, orders=range(11)):
        # the b of each beam's orders, at its own angles
        return np.array([beam.wavevector * np.sin([
            diffraction_angle(n, beam.wavelength, geom.period)
            for n in orders]) for beam in beams])

    @staticmethod
    def _matches_single(c3s, beams, geom, rows, tol):
        vals, est = grating._slit_batch(
            c3s, [beam.velocity for beam in beams], geom, rows, tol)
        half = geom.half_width
        for c3, beam, row, val in zip(c3s, beams, rows, vals):
            single, _ = _slit_integrals(Potential(c3), geom, beam, row, tol)
            assert np.all(np.abs(val - single) <= 1e-15 * half)
        assert np.all(est <= tol * half)

    @pytest.mark.parametrize("mass_u", [4.002602, 20.1797])
    @pytest.mark.parametrize("beta_deg", [0.0, 11.0, 30.0, 60.0])
    def test_envelope_items(self, mass_u, beta_deg):
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=math.radians(beta_deg))
        items = list(itertools.product((0.0, 1e-3, 0.1, 4.0, 50.0),
                                       (200.0, 2347.0, 5000.0)))
        beams = [BeamState(mass_u, v) for _, v in items]
        self._matches_single([c3 for c3, _ in items], beams, geom,
                             self._order_rows(beams, geom), 1e-8)

    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_velocity_nodes(self, config, request):
        cfg = load_config(request.getfixturevalue(config))
        x, _ = np.polynomial.hermite.hermgauss(11)
        sigma_v = cfg.beam.dv_over_u * cfg.beam.velocity / \
            (2 * math.sqrt(2 * math.log(2)))
        beams = [BeamState(cfg.beam.mass_u, v) for v in
                 cfg.beam.velocity + math.sqrt(2) * sigma_v * x]
        # every node at the mean-velocity angles, as the average takes them
        sines = np.sin([diffraction_angle(n, cfg.beam.wavelength,
                                          cfg.geometry.period)
                        for n in range(cfg.n_max + 1)])
        rows = np.array([beam.wavevector * sines for beam in beams])
        self._matches_single([cfg.potential.c3] * 11, beams, cfg.geometry,
                             rows, cfg.tolerance)

    def test_one_item_escalates(self, geometry, monkeypatch):
        # at 200 m/s the pair estimate of C3 = 50 (about 4e-11 s0/2)
        # fails tol = 5e-12, those of C3 = 0 and 4 pass
        sizes = []
        passes = grating._passes
        monkeypatch.setattr(grating, "_passes", lambda ph, rows, *args: (
            sizes.append(len(rows)) or passes(ph, rows, *args)))
        beams = [BeamState(4.002602, 200.0)] * 3
        rows = self._order_rows(beams, geometry)
        vals, est = grating._slit_batch([0.0, 50.0, 4.0], [200.0] * 3,
                                        geometry, rows, 5e-12)
        assert sizes == [3, 1]
        monkeypatch.undo()
        self._matches_single([0.0, 50.0, 4.0], beams, geometry, rows, 5e-12)

    def test_tol_below_floor_stalls(self, geometry):
        # every estimate is at least 1e-15 s0/2, so no pass meets 1e-16
        beams = [BeamState(4.002602, v) for v in (1000.0, 2347.0)]
        rows = self._order_rows(beams, geometry)
        with pytest.raises(QuadratureError):
            grating._slit_batch([4.1, 4.1], [beam.velocity for beam in beams],
                                geometry, rows, 1e-16)
        with pytest.raises(QuadratureError):
            _slit_integrals(Potential(4.1), geometry, beams[0], rows[0], 1e-16)

    def test_lost_descent_path_raises(self, geometry, monkeypatch):
        monkeypatch.setattr(grating, "_NEWTON_STEPS", 1)
        beams = [BeamState(4.002602, v) for v in (1000.0, 2347.0)]
        with pytest.raises(QuadratureError):
            grating._slit_batch([4.1, 4.1], [beam.velocity for beam in beams],
                                geometry, self._order_rows(beams, geometry),
                                1e-8)


# ---------------------------------------------------------------------------
# Order intensities


class TestOrderIntensities:
    def test_sum_and_symmetry(self, potential, geometry, he_beam):
        oi = order_intensities(potential, geometry, he_beam, n_max=10)
        assert oi.orders == tuple(range(-10, 11))
        assert float(oi.intensity.sum()) == pytest.approx(1.0, abs=1e-12)
        # the slit model is symmetric under n -> -n
        np.testing.assert_allclose(oi.intensity, oi.intensity[::-1],
                                   rtol=0, atol=1e-15)

    def test_regression_anchor_he(self, potential, geometry, he_beam):
        # frozen from this implementation after cross-checking the
        # underlying integrals against the brute-force reference
        oi = order_intensities(potential, geometry, he_beam, n_max=10)
        assert oi[0] == pytest.approx(0.601005, rel=2e-5)
        assert oi[1] == pytest.approx(0.148520, rel=2e-5)
        assert oi[3] == pytest.approx(0.0071636, rel=5e-5)

    def test_sigma_small_and_positive(self, potential, geometry, he_beam):
        oi = order_intensities(potential, geometry, he_beam, n_max=10)
        assert oi.sigma is not None
        assert np.all(oi.sigma >= 0)
        assert float(oi.sigma.max()) < 1e-7

    def test_subset_normalization(self, potential, geometry, he_beam):
        sub = intensities_for_orders(potential, geometry, he_beam,
                                     range(1, 11))
        assert float(sub.intensity.sum()) == pytest.approx(1.0, abs=1e-12)
        full = order_intensities(potential, geometry, he_beam, n_max=10)
        # same physics, different normalization constant
        i1 = full.orders.index(1)
        ratio = full.intensity[i1 + 2] / full.intensity[i1]
        assert sub.intensity[2] / sub.intensity[0] == \
            pytest.approx(ratio, rel=1e-10)

    def test_evanescent_n_max_raises(self, potential, geometry):
        slow = BeamState(mass_u=4.002602, velocity=5.0)  # lambda ~ 20 nm
        with pytest.raises(EvanescentOrderError):
            order_intensities(potential, geometry, slow, n_max=10)

    @given(weights=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_from_raw_always_unit_sum(self, weights):
        oi = OrderIntensities.from_raw(range(len(weights)), weights)
        assert float(oi.intensity.sum()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Angular pattern


class TestAngularPattern:
    def test_peak_value_is_n_squared_envelope(self, potential, geometry,
                                              he_beam):
        n_slits = 100
        thetas = np.array([diffraction_angle(n, he_beam.wavelength,
                                             geometry.period)
                           for n in (-2, 0, 1, 3)])
        scan = angular_pattern(np.sort(thetas), potential, geometry, he_beam,
                               n_slits=n_slits)
        for theta, value in zip(scan.angles, scan.values):
            f = slit_amplitude(theta, potential, geometry, he_beam)
            assert value == pytest.approx(n_slits**2 * abs(f) ** 2,
                                          rel=1e-10)

    def test_grating_factor_peak_width(self, he_beam, geometry):
        # FWHM of a principal maximum ~ 0.886 lambda / (N d)
        n_slits = 100
        lam = he_beam.wavelength
        expected = 0.886 * lam / (n_slits * geometry.period)
        theta = np.linspace(-1.2 * expected, 1.2 * expected, 20001)
        d2 = grating_factor(theta, n_slits, lam, geometry.period) ** 2
        above = theta[d2 >= 0.5 * d2.max()]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(expected, rel=0.02)

    def test_grating_factor_exact_at_maximum(self, he_beam, geometry):
        for n in range(0, 6):
            theta = diffraction_angle(n, he_beam.wavelength, geometry.period)
            assert grating_factor(theta, 100, he_beam.wavelength,
                                  geometry.period) == \
                pytest.approx((-1.0) ** (99 * n) * 100.0, rel=1e-12)

    def test_rejects_decreasing_grid(self, potential, geometry, he_beam):
        with pytest.raises(InvalidInputError):
            angular_pattern(np.array([0.1, 0.0]), potential, geometry,
                            he_beam)

    def test_rejects_fractional_slit_count(self, potential, geometry,
                                           he_beam):
        for n_slits in (2.5, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                grating_factor(0.1, n_slits, he_beam.wavelength,
                               geometry.period)
            with pytest.raises(InvalidInputError):
                AngularScan(np.array([0.0, 0.1]), np.ones(2),
                            n_slits=n_slits)
        with pytest.raises(InvalidInputError):
            angular_pattern(np.array([0.0, 0.1]), potential, geometry,
                            he_beam, n_slits=2.5)
        # a whole number of slits may come as a float
        scan = AngularScan(np.array([0.0, 0.1]), np.ones(2), n_slits=3.0)
        assert scan.n_slits == 3 and isinstance(scan.n_slits, int)

    def test_slit_count_checked_before_quadrature(self, potential, geometry,
                                                  he_beam, monkeypatch):
        calls = []
        real = grating._slit_integrals
        monkeypatch.setattr(grating, "_slit_integrals",
                            lambda *args: calls.append(1) or real(*args))
        grid = np.linspace(-0.01, 0.01, 4001)
        for n_slits in (0, -3, 2.5):
            with pytest.raises(InvalidInputError):
                angular_pattern(grid, potential, geometry, he_beam,
                                n_slits=n_slits)
        assert calls == []


class TestBSampling:
    """Scans sample the slit integral on Chebyshev points in b."""

    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_scan_cost(self, config, request, monkeypatch):
        cfg = load_config(request.getfixturevalue(config))
        rows, calls = [], []
        cos_dot, slit = grating._cos_dot, grating._slit_integrals
        monkeypatch.setattr(grating, "_cos_dot", lambda bs, z, core, half: (
            rows.append(bs.size) or cos_dot(bs, z, core, half)))
        monkeypatch.setattr(grating, "_slit_integrals", lambda *args: (
            calls.append(args[3].size) or slit(*args)))
        for points in (801, 4001):
            angular_pattern(_scan_grid(cfg, points), cfg.potential,
                            cfg.geometry, cfg.beam, tol=cfg.tolerance)
            assert 0 < max(rows) <= 60
            # one call, the one the benchmark's oracle check replays
            assert calls == [points]
            rows.clear()
            calls.clear()
        # an order set is smaller than the degree: every b goes direct
        intensities_for_orders(cfg.potential, cfg.geometry, cfg.beam,
                               range(1, 11), tol=cfg.tolerance)
        assert rows and set(rows) == {10}

    @staticmethod
    def _sampled_and_direct(potential, geometry, beam, grid, tol,
                            monkeypatch):
        bs = beam.wavevector * np.abs(np.sin(grid))
        assert grating._b_samples(bs, geometry.half_width) is not None
        vals, est = _slit_integrals(potential, geometry, beam, bs, tol)
        # the same passes on every requested b, with the same split point
        # and panels, which calls on chunks of bs would move
        with monkeypatch.context() as m:
            m.setattr(grating, "_b_samples", lambda bs, half: None)
            direct, _ = _slit_integrals(potential, geometry, beam, bs, tol)
        assert np.all(np.abs(vals - direct) <= est)
        assert np.all(est <= tol * geometry.half_width)
        return bs, vals, est, direct

    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_cli_grid_matches_direct(self, config, request, monkeypatch):
        cfg = load_config(request.getfixturevalue(config))
        _, vals, _, direct = self._sampled_and_direct(
            cfg.potential, cfg.geometry, cfg.beam, _scan_grid(cfg, 4001),
            cfg.tolerance, monkeypatch)
        assert np.max(np.abs(vals - direct)) <= \
            1e-14 * cfg.geometry.half_width

    def test_positive_grid_matches_direct(self, potential, geometry,
                                          he_beam, monkeypatch):
        # b_min > 0, as in the scan-to-C3 round trip
        lam, d = he_beam.wavelength, geometry.period
        grid = np.linspace(0.5 * lam / d, 10.5 * lam / d, 9001)
        self._sampled_and_direct(potential, geometry, he_beam, grid, 1e-8,
                                 monkeypatch)

    def test_wide_angle_matches_direct_and_mpmath(self, monkeypatch):
        # b s0/2 up to ~390: a degree of about 260
        geom = GratingGeometry(period=100.0, slit_width=66.8, bar_depth=53.0,
                               wedge_angle=0.0)
        beam = BeamState(mass_u=4.002602, velocity=200.0)
        grid = np.linspace(-1.2, 1.2, 1201)
        bs, vals, est, _ = self._sampled_and_direct(
            Potential(50.0), geom, beam, grid, 1e-8, monkeypatch)
        # a requested b between two sample points, where the oracle
        # still takes only seconds
        points = grating._b_samples(bs, geom.half_width)[0]
        i = int(np.argmin(np.abs(bs - 3.0)))
        assert np.min(np.abs(points - bs[i])) > 0
        ref = slit_integral_mpmath(50.0, geom.bar_depth, geom.wedge_angle,
                                   200.0, geom.slit_width, bs[i])
        assert abs(vals[i] - ref) <= est[i]

    def test_degree_of_shipped_scans(self):
        # omega = (b_max - b_min) s0/4 is about 11 for +-10.5 orders
        n, bound = grating._chebyshev_degree(11.0)
        assert n == 37 and bound <= 1e-15
        assert grating._chebyshev_degree(1000.0)[0] < 1200


# ---------------------------------------------------------------------------
# Velocity averaging


class TestVelocityAveraging:
    def test_single_node_equals_monochromatic(self, potential, geometry,
                                              he_beam):
        mono = order_intensities(potential, geometry, he_beam, n_max=10)
        one = velocity_averaged_intensities(potential, geometry, he_beam,
                                            n_max=10, quad_points=1)
        assert np.array_equal(one.intensity, mono.intensity)

    def test_single_node_sigma_equals_monochromatic(self, potential,
                                                    geometry, he_beam):
        mono = order_intensities(potential, geometry, he_beam, n_max=10)
        one = velocity_averaged_intensities(potential, geometry, he_beam,
                                            n_max=10, quad_points=1)
        assert np.array_equal(one.sigma, mono.sigma)

    @pytest.mark.parametrize("quad_points", [3, 11])
    def test_no_spread_is_monochromatic(self, quad_points, potential,
                                        geometry):
        beam = BeamState(mass_u=4.002602, velocity=2347.0)
        mono = order_intensities(potential, geometry, beam, n_max=10)
        avg = velocity_averaged_intensities(potential, geometry, beam,
                                            n_max=10, quad_points=quad_points)
        assert np.array_equal(avg.intensity, mono.intensity)
        assert np.array_equal(avg.sigma, mono.sigma)

    def test_converged_in_node_count(self, potential, geometry, he_beam):
        a = velocity_averaged_intensities(potential, geometry, he_beam,
                                          n_max=5, quad_points=11)
        b = velocity_averaged_intensities(potential, geometry, he_beam,
                                          n_max=5, quad_points=17)
        np.testing.assert_allclose(a.intensity, b.intensity, atol=2e-8)

    def test_matches_monte_carlo(self, potential, geometry, he_beam):
        # Monte Carlo average of the same per-velocity model; this
        # exercises the Gauss-Hermite weighting, not the quadrature.
        gh = velocity_averaged_intensities(potential, geometry, he_beam,
                                           n_max=5, quad_points=11)
        rng = np.random.default_rng(7)
        sigma_v = he_beam.dv_over_u * he_beam.velocity / \
            (2 * math.sqrt(2 * math.log(2)))
        draws = he_beam.velocity + sigma_v * rng.standard_normal(192)
        orders = tuple(range(-5, 6))
        thetas = np.array([diffraction_angle(n, he_beam.wavelength,
                                             geometry.period)
                           for n in orders])
        samples = []
        for v in draws:
            beam_v = BeamState(he_beam.mass_u, float(v))
            bs = beam_v.wavevector * np.abs(np.sin(thetas))
            vals, _ = _slit_integrals(potential, geometry, beam_v, bs, 1e-7)
            raw = np.abs(2 * np.cos(thetas)
                         / math.sqrt(beam_v.wavelength) * vals) ** 2
            samples.append(raw / raw.sum())
        samples = np.array(samples)
        mc = samples.mean(axis=0)
        mc /= mc.sum()
        se = samples.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(gh.intensity - mc) <= 5 * se + 1e-6)

    def test_even_node_count_rejected(self, potential, geometry, he_beam):
        with pytest.raises(InvalidInputError):
            velocity_averaged_intensities(potential, geometry, he_beam,
                                          quad_points=4)

    @pytest.mark.parametrize("quad_points", [103, 100001])
    def test_node_count_bounded(self, quad_points, potential, geometry,
                                he_beam, monkeypatch):
        # rejected before hermgauss builds its quad_points-square matrix
        def boom(n):
            raise AssertionError("hermgauss ran")
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", boom)
        with pytest.raises(InvalidInputError):
            velocity_averaged_intensities(potential, geometry, he_beam,
                                          quad_points=quad_points)

    def test_overwide_spread_rejected(self, potential, geometry):
        beam = BeamState(mass_u=4.002602, velocity=2347.0, dv_over_u=0.9)
        with pytest.raises(InvalidInputError):
            velocity_averaged_intensities(potential, geometry, beam,
                                          quad_points=31)

    def test_narrows_spread_shifts_little(self, potential, geometry):
        # a 3 percent FWHM spread moves the strong orders only slightly
        mono_beam = BeamState(4.002602, 2347.0)
        spread = BeamState(4.002602, 2347.0, dv_over_u=0.03)
        mono = order_intensities(potential, geometry, mono_beam, n_max=5)
        avg = velocity_averaged_intensities(potential, geometry, spread,
                                            n_max=5)
        assert np.all(np.abs(avg.intensity - mono.intensity) < 5e-3)
