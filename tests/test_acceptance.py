"""Release acceptance gate.

Each test checks one release criterion end to end and prints a single

    ACCEPTANCE <id> (<label>): PASS|FAIL (<measured detail>)

line straight to the terminal (bypassing capture) before asserting, so
a full `pytest -v` run doubles as the acceptance report.
"""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import kk_eps_brute, phase_by_line_integral
from vdwgrating import (
    CachedDielectric,
    OneOscillatorAtom,
    LorentzSurface,
    Potential,
    c3_lifshitz,
    c3_one_oscillator,
    eps_imaginary_axis,
    order_intensities,
    static_response_g0,
    transmission_factor,
    wall_phase,
)
from vdwgrating.cli import main as cli_main
from vdwgrating.constants import EXPERIMENTAL_C3_MEV_NM3, HBAR_EV_S, NM_PER_M
from vdwgrating.dataio import read_report


@pytest.fixture()
def announce(capfd):
    def _announce(criterion, label, ok, detail):
        with capfd.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"\nACCEPTANCE {criterion} ({label}): {status} ({detail})",
                  flush=True)
    return _announce


def _run_theory_kk(config_path, out_path):
    start = time.perf_counter()
    code = cli_main(["theory", "--config", str(config_path), "--route",
                     "kk", "--out", str(out_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = read_report(out_path)
    return float(report["result.c3_mev_nm3"]), elapsed


class TestCriterion1Lifshitz:
    def test_1a_kk_prediction_he(self, he_config_path, tmp_path, announce):
        c3, elapsed = _run_theory_kk(he_config_path, tmp_path / "he.txt")
        ok = abs(c3 - 3.9) <= 0.15 and elapsed < 5.0
        announce("1a", "kk route He* C3 = 3.9 +- 0.15 meV nm^3, < 5 s",
                 ok, f"C3 = {c3:.4f}, {elapsed:.2f} s")
        assert elapsed < 5.0
        assert abs(c3 - 3.9) <= 0.15, (
            f"kk C3(He*) = {c3:.4f} meV nm^3 is outside 3.9 +- 0.15")

    def test_1b_kk_prediction_ne(self, ne_config_path, tmp_path, announce):
        c3, elapsed = _run_theory_kk(ne_config_path, tmp_path / "ne.txt")
        ok = abs(c3 - 3.6) <= 0.15 and elapsed < 5.0
        announce("1b", "kk route Ne* C3 = 3.6 +- 0.15 meV nm^3, < 5 s",
                 ok, f"C3 = {c3:.4f}, {elapsed:.2f} s")
        assert elapsed < 5.0
        assert abs(c3 - 3.6) <= 0.15, (
            f"kk C3(Ne*) = {c3:.4f} meV nm^3 is outside 3.6 +- 0.15")


class TestCriterion2StaticResponse:
    def test_2_g0_value_and_runtime(self, tl_params, announce):
        start = time.perf_counter()
        g0 = static_response_g0(tl_params)
        elapsed = time.perf_counter() - start
        ok = abs(g0 - 0.588) <= 0.005 and elapsed < 1.0
        announce("2", "static g(i0) = 0.588 +- 0.005, < 1 s", ok,
                 f"g0 = {g0:.6f}, {elapsed:.3f} s")
        assert elapsed < 1.0
        assert abs(g0 - 0.588) <= 0.005


class TestCriterion3OneOscillator:
    def test_3_closed_form_consistency(self, tl_params, announce):
        cache = CachedDielectric(tl_params)
        g0 = cache.g0
        worst = 0.0
        for alpha0, ea in ((0.0468, 1.18), (0.0276, 2.04)):
            full = c3_lifshitz(OneOscillatorAtom(alpha0, ea), cache,
                               tol=1e-8).c3
            closed = c3_one_oscillator(alpha0, g0, ea, 13.0)
            worst = max(worst, abs(closed - full) / full)
        atom = OneOscillatorAtom(0.0468, 1.18)
        surface = LorentzSurface(0.588, 13.0)
        quad = c3_lifshitz(atom, surface, tol=1e-12).c3
        ident = c3_one_oscillator(atom.alpha0, surface.g0, atom.energy,
                                  surface.energy)
        ident_rel = abs(quad - ident) / ident
        ok = worst < 0.10 and ident_rel < 1e-8
        announce("3", "one-oscillator route within 10% of full kk; "
                 "Lorentzian identity 1e-8", ok,
                 f"worst species gap = {100 * worst:.2f}%, identity rel = "
                 f"{ident_rel:.2e}")
        assert worst < 0.10
        assert ident_rel < 1e-8


class TestCriterion4BareGrating:
    def test_4_bare_slit_ratios(self, geometry, he_beam, announce):
        oi = order_intensities(Potential(0.0), geometry, he_beam, n_max=10)
        lam = he_beam.wavelength
        worst = 0.0
        for n in range(1, 11):
            theta = math.asin(n * lam / geometry.period)
            x = n * math.pi * geometry.slit_width / geometry.period
            # obliquity cos(theta_n) enters through the slit amplitude
            # prefactor, so the closed-form ratio carries cos^2
            closed = math.cos(theta) ** 2 * (math.sin(x) / x) ** 2
            got = oi[n] / oi[0]
            worst = max(worst, abs(got - closed) / closed)
        r3 = oi[3] / oi[0]
        ok = worst < 1e-10 and r3 < 1e-5
        announce("4", "C3 = 0 order ratios match the closed form to "
                 "1e-10; order 3 suppressed", ok,
                 f"worst rel = {worst:.2e}, R3/R0 = {r3:.2e}")
        assert worst < 1e-10
        assert r3 < 1e-5


class TestCriterion5RoundTripFit:
    def test_5_synth_fit_loops(self, he_config_path, tmp_path, announce):
        start = time.perf_counter()
        data = tmp_path / "noisy.csv"
        report = tmp_path / "fit.txt"
        assert cli_main(["synth", "--config", str(he_config_path),
                         "--noise", "0.01", "--out", str(data)]) == 0
        assert cli_main(["fit", "--config", str(he_config_path),
                         "--data", str(data), "--out", str(report)]) == 0
        noisy_c3 = float(read_report(report)["result.c3_mev_nm3"])
        noisy_rel = abs(noisy_c3 - 4.1) / 4.1

        base_text = Path(he_config_path).read_text()
        worst_clean = 0.0
        for true_c3 in (0.5, 1.0, 2.0, 4.1, 10.0):
            cfg = tmp_path / f"c3_{true_c3}.cfg"
            cfg.write_text(re.sub(
                r"potential\.c3_mev_nm3 = .*",
                f"potential.c3_mev_nm3 = {true_c3}", base_text))
            clean = tmp_path / f"clean_{true_c3}.csv"
            rep = tmp_path / f"fit_{true_c3}.txt"
            assert cli_main(["synth", "--config", str(cfg), "--noise",
                             "0.0", "--out", str(clean)]) == 0
            assert cli_main(["fit", "--config", str(cfg), "--data",
                             str(clean), "--out", str(rep)]) == 0
            got = float(read_report(rep)["result.c3_mev_nm3"])
            worst_clean = max(worst_clean, abs(got - true_c3) / true_c3)
        elapsed = time.perf_counter() - start
        ok = noisy_rel < 0.05 and worst_clean < 0.005 and elapsed < 30.0
        announce("5", "synth/fit round trip: 1% noise within 5%, "
                 "noiseless within 0.5%, < 30 s", ok,
                 f"noisy rel = {100 * noisy_rel:.2f}%, worst clean rel = "
                 f"{100 * worst_clean:.3f}%, {elapsed:.1f} s")
        assert noisy_rel < 0.05
        assert worst_clean < 0.005
        assert elapsed < 30.0


class TestCriterion6PhaseClosedForm:
    def test_6_phase_properties(self, geometry, he_beam, announce):
        import dataclasses
        flat = dataclasses.replace(geometry, wedge_angle=0.0)
        pot = Potential(4.1)
        zeta = np.geomspace(0.3, geometry.half_width, 64)
        amp = (pot.c3 * 1e-3 * geometry.bar_depth
               / (HBAR_EV_S * he_beam.velocity * NM_PER_M))
        beta0_rel = np.max(np.abs(
            wall_phase(zeta, pot, flat, he_beam) / (amp / zeta**3) - 1.0))

        rng = np.random.default_rng(20260814)
        unimod = 0.0
        for c3 in rng.uniform(0.0, 20.0, size=100):
            z = rng.uniform(0.02, geometry.half_width - 0.01, size=100)
            tau = transmission_factor(z, Potential(c3), geometry, he_beam)
            unimod = max(unimod, float(np.max(np.abs(np.abs(tau) - 1.0))))

        line_rel = 0.0
        for z in np.geomspace(0.5, 33.0, 20):
            ref, _ = phase_by_line_integral(
                z, pot.c3, geometry.bar_depth, geometry.wedge_angle,
                he_beam.velocity)
            got = wall_phase(z, pot, geometry, he_beam)
            line_rel = max(line_rel, abs(got - ref) / ref)

        ok = beta0_rel < 1e-14 and unimod < 1e-12 and line_rel < 1e-6
        announce("6", "beta = 0 closed form 1e-14; |tau| = 1 on 1e4 "
                 "draws; line-integral oracle 1e-6", ok,
                 f"beta0 rel = {beta0_rel:.1e}, ||tau|-1| = {unimod:.1e}, "
                 f"line rel = {line_rel:.1e}")
        assert beta0_rel < 1e-14
        assert unimod < 1e-12
        assert line_rel < 1e-6


class TestCriterion7QuadratureRobustness:
    def test_7_error_estimates_and_kk_oracle(self, geometry, he_beam,
                                             potential, tl_params,
                                             announce):
        coarse = order_intensities(potential, geometry, he_beam, n_max=10,
                                   tol=1e-8)
        fine = order_intensities(potential, geometry, he_beam, n_max=10,
                                 tol=5e-9)
        shifts = np.abs(fine.intensity - coarse.intensity)
        orders_ok = bool(np.all(shifts <= coarse.sigma + 1e-14))

        cache = CachedDielectric(tl_params)
        atom = OneOscillatorAtom(0.0468, 1.18)
        first = c3_lifshitz(atom, cache, tol=1e-6)
        second = c3_lifshitz(atom, cache, tol=5e-7)
        c3_ok = abs(second.c3 - first.c3) <= first.error + 1e-12

        kk_rel = 0.0
        for w in (0.0, 1.0, 5.0, 20.0, 100.0):
            brute = kk_eps_brute(w, tl_params.band_gap, tl_params.strength,
                                 tl_params.resonance, tl_params.width)
            got = eps_imaginary_axis(w, tl_params)
            kk_rel = max(kk_rel, abs(got - brute) / brute)

        ok = orders_ok and c3_ok and kk_rel < 1e-6
        announce("7", "halved tolerances stay inside error estimates; "
                 "kk matches 2e6-panel oracle to 1e-6", ok,
                 f"max order shift = {float(np.max(shifts)):.1e} vs sigma "
                 f">= {float(np.min(coarse.sigma)):.1e}, C3 shift = "
                 f"{abs(second.c3 - first.c3):.1e} vs {first.error:.1e}, "
                 f"kk rel = {kk_rel:.1e}")
        assert orders_ok
        assert c3_ok
        assert kk_rel < 1e-6


class TestCriterion8ExperimentalReference:
    def test_8_measured_values_reference_only(self, announce):
        import inspect

        import vdwgrating.constants as constants_mod

        values_ok = EXPERIMENTAL_C3_MEV_NM3 == {"He*": (4.1, 1.0),
                                                "Ne*": (2.8, 1.0)}
        src = " ".join(inspect.getsource(constants_mod)
                       .replace("#", " ").split())
        doc_ok = "not regression anchors" in src
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        readme_ok = ("4.1" in text and "2.8" in text
                     and "comparison only" in text)
        ok = values_ok and doc_ok and readme_ok
        announce("8", "measured C3 values 4.1/2.8 documented as "
                 "reference only", ok,
                 f"constants = {values_ok}, docstring = {doc_ok}, "
                 f"README = {readme_ok}")
        assert values_ok
        assert doc_ok
        assert readme_ok
