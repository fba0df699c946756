import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwgrating import (
    CachedDielectric,
    InvalidInputError,
    LorentzSurface,
    OneOscillatorAtom,
    TabulatedPolarizability,
    TaucLorentzParams,
    c3_lifshitz,
    c3_one_oscillator,
    eps_imaginary_axis,
    g_from_eps,
    one_oscillator_alpha,
    oscillator_energy_from_c6,
    static_response_g0,
    tauc_lorentz_eps2,
)
from vdwgrating.constants import C6_AU_EV_NM6

from oracles import c3_semi_infinite_sum, kk_eps_brute, kk_eps_mpmath


class TestTaucLorentz:
    def test_zero_below_gap(self, tl_params):
        e = np.array([0.0, 1.0, 2.28, tl_params.band_gap])
        assert np.all(tauc_lorentz_eps2(e, tl_params) == 0.0)

    def test_positive_above_gap(self, tl_params):
        e = np.geomspace(2.3, 100.0, 50)
        assert np.all(tauc_lorentz_eps2(e, tl_params) > 0.0)

    def test_cubic_tail(self, tl_params):
        # far above the resonance eps2 -> E_A E_O E_G / E^3
        e = 2.0e3
        c = tl_params.strength * tl_params.resonance * tl_params.width
        assert tauc_lorentz_eps2(e, tl_params) == \
            pytest.approx(c / e**3, rel=5e-3)

    def test_peak_near_resonance(self, tl_params):
        e = np.linspace(2.3, 30.0, 4000)
        peak = e[np.argmax(tauc_lorentz_eps2(e, tl_params))]
        assert abs(peak - tl_params.resonance) < 2.0

    def test_rejects_nonpositive_params(self):
        with pytest.raises(InvalidInputError):
            TaucLorentzParams(band_gap=0.0, strength=74.5, resonance=7.17,
                              width=7.62)


class TestKramersKronig:
    def test_against_brute_force(self, tl_params):
        # uniform-trapezoid oracle with two million panels
        for w in (0.0, 1.0, 5.0, 20.0, 100.0):
            brute = kk_eps_brute(w, tl_params.band_gap, tl_params.strength,
                                 tl_params.resonance, tl_params.width)
            got = eps_imaginary_axis(w, tl_params)
            assert got == pytest.approx(brute, rel=1e-6)

    def test_against_mpmath(self, tl_params):
        # the closed form is exact, so only rounding separates it from a
        # 40-digit quadrature, from the static limit to far above 1e4 eV
        for w in (0.0, 1e-8, 1e-3, 1e4, 4e4, 1e6):
            ref = kk_eps_mpmath(w, tl_params.band_gap, tl_params.strength,
                                tl_params.resonance, tl_params.width)
            got = eps_imaginary_axis(w, tl_params)
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("shift", [0.0, 1e-9, -1e-9])
    def test_critical_damping_against_mpmath(self, shift):
        # at width = 2 resonance two pole pairs merge and the residues
        # diverge; the result must stay finite and accurate there
        params = TaucLorentzParams(band_gap=2.29, strength=74.5,
                                   resonance=7.17,
                                   width=2 * 7.17 * (1 + shift))
        w = np.array([0.0, 1e-3, 1.0, 7.17, 100.0, 1e4, 1e6])
        got = eps_imaginary_axis(w, params)
        ref = [kk_eps_mpmath(x, params.band_gap, params.strength,
                             params.resonance, params.width) for x in w]
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0)

    def test_overdamped_pole_at_query_energy(self):
        # for width > 2 resonance the roots of Q lie on the imaginary
        # axis, at i y; at E = y a root meets the removable point i E
        params = TaucLorentzParams(band_gap=2.29, strength=74.5,
                                   resonance=3.0, width=10.0)
        root = math.sqrt(10.0**2 - 4 * 3.0**2)
        for y in (0.5 * (10.0 + root), 0.5 * (10.0 - root)):
            for w in (y, y * (1 + 1e-9)):
                ref = kk_eps_mpmath(w, params.band_gap, params.strength,
                                    params.resonance, params.width)
                assert eps_imaginary_axis(w, params) == \
                    pytest.approx(ref, rel=1e-12)

    @given(band_gap=st.floats(0.5, 8.0), strength=st.floats(1.0, 500.0),
           resonance=st.floats(1.0, 30.0), width=st.floats(0.5, 40.0),
           w=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    @settings(max_examples=25, deadline=None)
    def test_sweep_against_brute_force(self, band_gap, strength, resonance,
                                       width, w):
        # width spans both sides of 2 resonance: under- and over-damped
        params = TaucLorentzParams(band_gap, strength, resonance, width)
        brute = kk_eps_brute(w, band_gap, strength, resonance, width)
        assert eps_imaginary_axis(w, params) == pytest.approx(brute,
                                                              rel=1e-6)

    def test_frozen_values(self, tl_params):
        # anchors confirmed against the brute-force oracle and an
        # extended-precision quadrature of the same integrand
        assert eps_imaginary_axis(0.0, tl_params) == \
            pytest.approx(3.8677557917, rel=1e-9)
        assert eps_imaginary_axis(5.0, tl_params) == \
            pytest.approx(2.9368663704, rel=1e-9)

    def test_monotone_decreasing_to_one(self, tl_params):
        w = np.array([0.0, 0.5, 2.0, 8.0, 50.0, 400.0, 5e3])
        eps = eps_imaginary_axis(w, tl_params)
        assert np.all(np.diff(eps) < 0)
        assert np.all(eps > 1.0)
        assert eps[-1] == pytest.approx(1.0, abs=1e-2)

    def test_static_g0(self, tl_params):
        assert static_response_g0(tl_params) == \
            pytest.approx(0.5891330450, rel=1e-8)
        assert abs(static_response_g0(tl_params) - 0.588) < 0.005

    @given(eps=st.floats(1.0 + 1e-12, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_g_between_zero_and_one(self, eps):
        g = g_from_eps(eps)
        assert 0.0 < g < 1.0


class TestCachedDielectric:
    def test_matches_direct_evaluation(self, tl_params):
        cache = CachedDielectric(tl_params)
        probes = np.array([2e-3, 0.37, 4.4, 33.0, 810.0, 7.1e3])
        direct = eps_imaginary_axis(probes, tl_params)
        np.testing.assert_allclose(cache.eps(probes), direct, atol=5e-6)

    def test_static_node_exact(self, tl_params):
        cache = CachedDielectric(tl_params)
        assert cache.g0 == pytest.approx(static_response_g0(tl_params),
                                         rel=1e-12)

    def test_tail_beyond_grid(self, tl_params):
        # past the 1e4 eV grid edge eps is still the exact transform; its
        # falloff is not a pure 1/E^2 (the ratio at 2e4/4e4 is 3.99875)
        cache = CachedDielectric(tl_params)
        for w in (2e4, 4e4, 1e5):
            ref = kk_eps_mpmath(w, tl_params.band_gap, tl_params.strength,
                                tl_params.resonance, tl_params.width)
            assert cache.eps(w) == pytest.approx(ref, rel=1e-12)


class TestLifshitzIntegral:
    def test_analytic_lorentzian_identity(self, tl_params):
        # the quadrature must reproduce the closed form exactly for a
        # one-oscillator atom against a one-oscillator surface
        surface = LorentzSurface(g0=0.588, energy=13.0)
        atom = OneOscillatorAtom(alpha0=0.0468, energy=1.18)
        got = c3_lifshitz(atom, surface)
        closed = c3_one_oscillator(0.0468, 0.588, 1.18, 13.0)
        assert got.c3 == pytest.approx(closed, rel=1e-10)
        assert got.error < 1e-6

    def test_against_scipy_quad(self):
        surface = LorentzSurface(g0=0.45, energy=9.0)
        atom = OneOscillatorAtom(alpha0=0.031, energy=2.2)
        got = c3_lifshitz(atom, surface)
        expected = c3_semi_infinite_sum(0.031, 0.45, 2.2, 9.0)
        assert got.c3 == pytest.approx(expected, rel=1e-9)

    def test_full_kk_values(self, tl_params):
        # anchors confirmed against an independent extended-precision
        # evaluation of the same Tauc-Lorentz / Kramers-Kronig chain
        cache = CachedDielectric(tl_params)
        he = c3_lifshitz(OneOscillatorAtom(0.0468, 1.18), cache)
        ne = c3_lifshitz(OneOscillatorAtom(0.0276, 2.04), cache)
        assert he.c3 == pytest.approx(3.6945156, rel=2e-6)
        assert ne.c3 == pytest.approx(3.5381397, rel=2e-6)
        assert he.error < 5e-4
        assert ne.error < 5e-4

    def test_one_oscillator_close_to_full(self, tl_params):
        # a single 13 eV surface oscillator reproduces the full KK
        # result to better than ten percent
        cache = CachedDielectric(tl_params)
        for alpha0, ea in ((0.0468, 1.18), (0.0276, 2.04)):
            full = c3_lifshitz(OneOscillatorAtom(alpha0, ea), cache).c3
            approx = c3_one_oscillator(alpha0, cache.g0, ea, 13.0)
            assert abs(approx - full) / full < 0.10

    def test_tolerance_halving_within_error(self, tl_params):
        cache = CachedDielectric(tl_params)
        atom = OneOscillatorAtom(0.0468, 1.18)
        a = c3_lifshitz(atom, cache, tol=1e-6)
        b = c3_lifshitz(atom, cache, tol=5e-7)
        assert abs(a.c3 - b.c3) <= a.error + 1e-12

    def test_accepts_raw_params_as_surface(self, tl_params):
        res = c3_lifshitz(OneOscillatorAtom(0.0468, 1.18), tl_params)
        assert res.c3 == pytest.approx(3.6945156, rel=1e-5)

    @given(ea=st.floats(0.3, 30.0), es=st.floats(0.3, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_symmetric_in_energies(self, ea, es):
        a = c3_one_oscillator(0.05, 0.6, ea, es)
        b = c3_one_oscillator(0.05, 0.6, es, ea)
        assert a == pytest.approx(b, rel=1e-12)

    @given(scale=st.floats(1.01, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_monotone_in_surface_energy(self, scale):
        base = c3_one_oscillator(0.05, 0.6, 1.5, 10.0)
        assert c3_one_oscillator(0.05, 0.6, 1.5, 10.0 * scale) > base


class TestTabulatedPolarizability:
    def _dense_table(self, alpha0=0.0468, ea=1.18):
        e = np.concatenate([[0.0], np.geomspace(1e-3, 2e3, 400)])
        return TabulatedPolarizability(e, alpha0 / (1 + (e / ea) ** 2))

    def test_interpolates_nodes_exactly(self):
        tab = self._dense_table()
        np.testing.assert_allclose(tab(tab.energy), tab.alpha,
                                   rtol=1e-12, atol=0)

    def test_between_nodes_close_to_model(self):
        tab = self._dense_table()
        e = np.geomspace(2e-3, 1.5e3, 777)
        model = 0.0468 / (1 + (e / 1.18) ** 2)
        np.testing.assert_allclose(tab(e), model, rtol=1e-5)

    def test_inverse_square_tail(self):
        tab = self._dense_table()
        e_last = tab.energy[-1]
        assert tab(4 * e_last) == \
            pytest.approx(tab.alpha[-1] / 16.0, rel=1e-12)

    def test_c3_matches_analytic_atom(self, tl_params):
        cache = CachedDielectric(tl_params)
        tab = self._dense_table()
        got = c3_lifshitz(tab, cache)
        ref = c3_lifshitz(OneOscillatorAtom(0.0468, 1.18), cache)
        assert got.c3 == pytest.approx(ref.c3, rel=1e-4)

    def test_zero_table_gives_zero_c3(self, tl_params):
        tab = TabulatedPolarizability(np.array([0.0, 1.0, 10.0]),
                                      np.zeros(3))
        res = c3_lifshitz(tab, CachedDielectric(tl_params))
        assert res.c3 == 0.0

    def test_two_point_table(self, tl_params):
        tab = TabulatedPolarizability(np.array([0.0, 2.0]),
                                      np.array([0.05, 0.025]))
        res = c3_lifshitz(tab, CachedDielectric(tl_params))
        assert res.c3 > 0

    def test_rejects_nonzero_first_energy(self):
        with pytest.raises(InvalidInputError):
            TabulatedPolarizability(np.array([0.5, 1.0]),
                                    np.array([0.05, 0.04]))

    def test_rejects_increasing_alpha(self):
        with pytest.raises(InvalidInputError):
            TabulatedPolarizability(np.array([0.0, 1.0, 2.0]),
                                    np.array([0.05, 0.02, 0.03]))

    def test_rejects_negative_alpha(self):
        with pytest.raises(InvalidInputError):
            TabulatedPolarizability(np.array([0.0, 1.0]),
                                    np.array([0.05, -0.01]))


class TestOscillatorEnergy:
    def test_formula(self):
        assert oscillator_energy_from_c6(1.5, 0.05) == \
            pytest.approx(4 * 1.5 / (3 * 0.05**2), rel=1e-15)

    def test_consistent_with_helium_inputs(self):
        # literature C6 for the metastable helium dimer, atomic units
        c6_ev_nm6 = 3276.0 * C6_AU_EV_NM6
        ea = oscillator_energy_from_c6(c6_ev_nm6, 0.0468)
        assert ea == pytest.approx(1.18, rel=0.02)

    def test_alpha_half_height_at_ea(self):
        atom = OneOscillatorAtom(alpha0=0.0468, energy=1.18)
        assert one_oscillator_alpha(1.18, atom) == \
            pytest.approx(0.0234, rel=1e-12)
