import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import vdwgrating
from vdwgrating import inference, order_intensities, \
    velocity_averaged_intensities
from vdwgrating.cli import main
from vdwgrating.config import KEY_TABLE, load_config
from vdwgrating.dataio import load_orders_csv, load_scan_csv, read_report
from vdwgrating.lifshitz import c3_one_oscillator

ERROR_LINE = re.compile(
    r"^error: (usage|input|numerical): [A-Za-z_]+: .+$", re.MULTILINE)

FAST_CFG = """
geometry.d = 100.0
geometry.s0 = 66.8
geometry.t = 53.0
geometry.beta_deg = 11.0
beam.species = He*
beam.mass_u = 4.002602
beam.velocity_mps = 2347.0
potential.c3_mev_nm3 = 4.1
run.n_max = 6
run.seed = 7
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return path


class TestSimulate:
    def test_orders_match_library(self, fast_cfg, tmp_path, capsys):
        out = tmp_path / "orders.csv"
        assert main(["simulate", "--config", str(fast_cfg),
                     "--out", str(out)]) == 0
        assert str(out) in capsys.readouterr().out
        cfg = load_config(fast_cfg)
        expect = order_intensities(cfg.potential, cfg.geometry, cfg.beam,
                                   n_max=cfg.n_max, tol=cfg.tolerance)
        got = load_orders_csv(out)
        assert got.orders == expect.orders
        # repr round trip then renormalization can move the last bit
        np.testing.assert_allclose(got.intensity, expect.intensity,
                                   rtol=1e-12)

    def test_velocity_average_route(self, he_config_path, tmp_path):
        out = tmp_path / "orders.csv"
        assert main(["simulate", "--config", str(he_config_path),
                     "--out", str(out), "--quad-points", "3"]) == 0
        cfg = load_config(he_config_path)
        expect = velocity_averaged_intensities(
            cfg.potential, cfg.geometry, cfg.beam, n_max=cfg.n_max,
            quad_points=3, tol=cfg.tolerance)
        got = load_orders_csv(out)
        np.testing.assert_allclose(got.intensity, expect.intensity,
                                   rtol=1e-12)

    def test_node_count_bounded(self, he_config_path, fast_cfg, tmp_path,
                                capsys, monkeypatch):
        # rejected before hermgauss builds its quad_points-square matrix,
        # also where beam.dv_over_u = 0 (fast_cfg) needs only one node
        def boom(n):
            raise AssertionError("hermgauss ran")
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", boom)
        for cfg in (he_config_path, fast_cfg):
            for quad_points in ("4", "100001"):
                assert main(["simulate", "--config", str(cfg),
                             "--quad-points", quad_points,
                             "--out", str(tmp_path / "o.csv")]) == 2
                assert "input: InvalidInputError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "synth"])
    @pytest.mark.parametrize("points", ["15", "1000001", "1000000000"])
    def test_scan_points_bounded(self, command, points, fast_cfg, tmp_path,
                                 capsys, monkeypatch):
        # rejected before np.linspace builds the grid
        def boom(*args, **kwargs):
            raise AssertionError("np.linspace ran")
        monkeypatch.setattr(np, "linspace", boom)
        noise = ["--noise", "0.01"] if command == "synth" else []
        assert main([command, "--config", str(fast_cfg), "--scan", *noise,
                     "--points", points,
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "input: InvalidInputError" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_scan_output(self, fast_cfg, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(fast_cfg), "--scan",
                     "--points", "101", "--n-slits", "25",
                     "--out", str(out)]) == 0
        scan, meta = load_scan_csv(out)
        assert scan.angles.size == 101
        assert scan.n_slits == 25
        assert meta["n_slits"] == "25"


class TestSynth:
    def test_same_seed_reproduces_bytes(self, fast_cfg, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        base = ["synth", "--config", str(fast_cfg), "--noise", "0.01"]
        assert main(base + ["--out", str(a), "--seed", "3"]) == 0
        assert main(base + ["--out", str(b), "--seed", "3"]) == 0
        assert main(base + ["--out", str(c), "--seed", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_config_seed_is_default(self, fast_cfg, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["synth", "--config", str(fast_cfg), "--noise", "0.01"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_min_order(self, fast_cfg, tmp_path):
        out = tmp_path / "orders.csv"
        assert main(["synth", "--config", str(fast_cfg), "--noise", "0.0",
                     "--min-order", "2", "--out", str(out)]) == 0
        assert load_orders_csv(out).orders == (2, 3, 4, 5, 6)

    def test_min_order_above_n_max_is_usage_error(self, fast_cfg, tmp_path,
                                                  capsys):
        code = main(["synth", "--config", str(fast_cfg), "--noise", "0.0",
                     "--min-order", "99", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert ERROR_LINE.search(err)
        assert "usage" in err

    def test_scan_records_rng_metadata(self, fast_cfg, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["synth", "--config", str(fast_cfg), "--scan",
                     "--noise", "0.02", "--points", "64", "--seed", "5",
                     "--out", str(out)]) == 0
        _, meta = load_scan_csv(out)
        assert meta["rng_algorithm"] == "pcg64"
        assert meta["seed"] == "5"
        assert meta["noise_fraction"] == "0.02"


class TestFit:
    def test_report_keys_and_config_reproduces_fit(self, fast_cfg,
                                                   tmp_path):
        data = tmp_path / "data.csv"
        report = tmp_path / "fit.txt"
        assert main(["synth", "--config", str(fast_cfg), "--noise", "0.01",
                     "--seed", "12", "--out", str(data)]) == 0
        assert main(["fit", "--config", str(fast_cfg), "--data", str(data),
                     "--out", str(report)]) == 0
        rep = read_report(report)
        assert rep["tool.name"] == "vdwgrating"
        assert rep["tool.command"] == "fit"
        c3 = float(rep["result.c3_mev_nm3"])
        assert abs(c3 - 4.1) / 4.1 < 0.05
        assert float(rep["result.uncertainty_mev_nm3"]) > 0
        orders = rep["result.orders"].split()
        assert orders == [str(n) for n in range(1, 7)]
        for n in orders:
            float(rep[f"residual.{n}"])
        assert rep["diag.fit_degree"] == "32"
        assert 0 <= float(rep["diag.fit_surrogate_error"]) <= 1e-8
        assert rep["diag.fit_bound_limited"] == "false"
        # the embedded config must reproduce the fit exactly
        cfg2 = tmp_path / "replay.cfg"
        cfg2.write_text("\n".join(
            f"{k[len('config.'):]} = {v}" for k, v in rep.items()
            if k.startswith("config.")) + "\n")
        report2 = tmp_path / "fit2.txt"
        assert main(["fit", "--config", str(cfg2), "--data", str(data),
                     "--out", str(report2)]) == 0
        rep2 = read_report(report2)
        assert rep2["result.c3_mev_nm3"] == rep["result.c3_mev_nm3"]

    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_noiseless_synth_fits_unweighted(self, config, request,
                                             tmp_path):
        # noise-free data carry no sigma, so the fit is not weighted by
        # the ~1e-12 quadrature error estimate
        cfg_path = request.getfixturevalue(config)
        data = tmp_path / "data.csv"
        report = tmp_path / "fit.txt"
        assert main(["synth", "--config", cfg_path, "--noise", "0",
                     "--out", str(data)]) == 0
        assert data.read_text().splitlines()[0] == "n,intensity"
        assert main(["fit", "--config", cfg_path, "--data", str(data),
                     "--out", str(report)]) == 0
        rep = read_report(report)
        c3 = load_config(cfg_path).potential.c3
        assert float(rep["result.chi2"]) < 1.0
        assert abs(float(rep["result.c3_mev_nm3"]) - c3) / c3 < 5e-3

    @pytest.mark.parametrize("config", ["he_config_path", "ne_config_path"])
    def test_simulate_output_fits_unweighted(self, config, request,
                                             tmp_path):
        # simulate writes no sigma: weighted by the ~1e-14 quadrature
        # error estimate, the fit sat at the 1e-3 floor with chi2 ~ 1e19
        cfg_path = request.getfixturevalue(config)
        data = tmp_path / "data.csv"
        report = tmp_path / "fit.txt"
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(data)]) == 0
        assert data.read_text().splitlines()[0] == "n,intensity"
        assert main(["fit", "--config", cfg_path, "--data", str(data),
                     "--out", str(report)]) == 0
        rep = read_report(report)
        assert float(rep["result.chi2"]) < 1.0
        assert float(rep["result.uncertainty_mev_nm3"]) > 1e-3

    def test_boundary_minimum_is_numerical_failure(self, fast_cfg, tmp_path,
                                                   capsys):
        data = tmp_path / "data.csv"
        assert main(["synth", "--config", str(fast_cfg), "--noise", "0.0",
                     "--out", str(data)]) == 0
        code = main(["fit", "--config", str(fast_cfg), "--data", str(data),
                     "--out", str(tmp_path / "fit.txt"),
                     "--c3-min", "12", "--c3-max", "20"])
        assert code == 3
        err = capsys.readouterr().err
        assert ERROR_LINE.search(err)
        assert "numerical: BoundarySolutionError" in err

    def test_unconverged_surrogate_is_numerical_failure(
            self, fast_cfg, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.csv"
        assert main(["synth", "--config", str(fast_cfg), "--noise", "0.01",
                     "--out", str(data)]) == 0
        # a degree-4 interpolant cannot reach tol * max|R|
        monkeypatch.setattr(inference, "_CHEB_LEVELS", (4,))
        code = main(["fit", "--config", str(fast_cfg), "--data", str(data),
                     "--out", str(tmp_path / "fit.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert ERROR_LINE.search(err)
        assert "numerical: FitFailureError" in err
        assert "Traceback" not in err


class TestImportPath:
    """scipy, numpy.ma (about 16 ms cold) and numpy.fft stay off the
    command line's import path."""

    def _unwanted_modules_after(self, code):
        package = os.path.dirname(os.path.abspath(vdwgrating.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        code += ("; import sys; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy' "
                 "or m in ('numpy.ma', 'numpy.fft')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        return out.stdout.strip().splitlines()[-1]

    def test_import_loads_no_scipy(self):
        assert self._unwanted_modules_after("import vdwgrating.cli") == "[]"

    def test_fit_run_loads_no_scipy(self, fast_cfg, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["synth", "--config", str(fast_cfg), "--noise", "0.01",
                     "--out", str(data)]) == 0
        argv = ["fit", "--config", str(fast_cfg), "--data", str(data),
                "--out", str(tmp_path / "fit.txt")]
        code = f"from vdwgrating.cli import main; assert main({argv!r}) == 0"
        assert self._unwanted_modules_after(code) == "[]"

    def test_scan_to_c3_loads_no_scipy(self, fast_cfg):
        code = (
            "from vdwgrating import fit_c3, scan_order_intensities, "
            "synthesize_scan\n"
            "from vdwgrating.cli import _scan_grid\n"
            "from vdwgrating.config import load_config\n"
            f"cfg = load_config({str(fast_cfg)!r})\n"
            "scan = synthesize_scan(cfg.potential, cfg.geometry, cfg.beam, "
            "_scan_grid(cfg, 4001))\n"
            "obs = scan_order_intensities(scan, range(1, cfg.n_max + 1), "
            "cfg.geometry, cfg.beam)\n"
            "assert abs(fit_c3(obs, cfg.geometry, cfg.beam).c3 - 4.1) < 0.05")
        assert self._unwanted_modules_after(code) == "[]"


ONE_OSC_CFG = FAST_CFG + """
material.g0 = 0.588
material.es_ev = 13.0
atom.alpha0_nm3 = 0.0468
atom.ea_ev = 1.18
"""


class TestTheory:
    def test_one_osc_explicit_g0(self, tmp_path):
        cfg = tmp_path / "oo.cfg"
        cfg.write_text(ONE_OSC_CFG)
        report = tmp_path / "theory.txt"
        assert main(["theory", "--config", str(cfg), "--route", "one-osc",
                     "--out", str(report)]) == 0
        rep = read_report(report)
        assert rep["result.route"] == "one-osc"
        assert float(rep["result.g0"]) == 0.588
        expect = c3_one_oscillator(0.0468, 0.588, 1.18, 13.0)
        assert float(rep["result.c3_mev_nm3"]) == pytest.approx(expect)

    def test_one_osc_missing_es_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "oo.cfg"
        cfg.write_text(FAST_CFG + "atom.alpha0_nm3 = 0.0468\n"
                                  "atom.ea_ev = 1.18\n")
        code = main(["theory", "--config", str(cfg), "--route", "one-osc",
                     "--out", str(tmp_path / "t.txt")])
        assert code == 2
        assert "input: ConfigError" in capsys.readouterr().err

    def test_dump_eps_rejected_for_one_osc(self, tmp_path, capsys):
        cfg = tmp_path / "oo.cfg"
        cfg.write_text(ONE_OSC_CFG)
        code = main(["theory", "--config", str(cfg), "--route", "one-osc",
                     "--dump-eps", str(tmp_path / "eps.csv"),
                     "--out", str(tmp_path / "t.txt")])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_kk_route_with_eps_dump(self, he_config_path, tmp_path):
        report = tmp_path / "theory.txt"
        eps_csv = tmp_path / "eps.csv"
        assert main(["theory", "--config", str(he_config_path),
                     "--route", "kk", "--dump-eps", str(eps_csv),
                     "--out", str(report)]) == 0
        rep = read_report(report)
        assert rep["result.species"] == "He*"
        assert float(rep["result.g0"]) == pytest.approx(
            0.5891330449661233, rel=1e-10)
        assert float(rep["result.c3_mev_nm3"]) == pytest.approx(
            3.6945157, rel=1e-5)
        lines = eps_csv.read_text().splitlines()
        assert lines[0] == "energy_ev,eps_iw"
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(3.8677557917382193, rel=1e-9)
        assert len(lines) == 1 + 512

    def test_table_route_relative_path(self, tmp_path):
        table = tmp_path / "alpha.dat"
        energies = np.concatenate(([0.0], np.geomspace(0.05, 400.0, 80)))
        alpha = 0.0468 / (1.0 + (energies / 1.18) ** 2)
        table.write_text("".join(f"{float(e)!r} {float(a)!r}\n"
                                 for e, a in zip(energies, alpha)))
        cfg = tmp_path / "tab.cfg"
        cfg.write_text(FAST_CFG + """
material.band_gap_ev = 2.29
material.strength_ev = 74.5
material.resonance_ev = 7.17
material.width_ev = 7.62
atom.table = alpha.dat
""")
        report = tmp_path / "theory.txt"
        assert main(["theory", "--config", str(cfg), "--route", "table",
                     "--out", str(report)]) == 0
        rep = read_report(report)
        assert rep["result.route"] == "table"
        # the table samples the one-oscillator He* profile, so the full
        # kk value should be approached from the sampled grid
        assert float(rep["result.c3_mev_nm3"]) == pytest.approx(
            3.6945157, rel=5e-3)


class TestFailureModes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert ERROR_LINE.search(capsys.readouterr().err)

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "input: FileNotFoundError" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(FAST_CFG + "geometry.depth = 1.0\n")
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "input: ConfigError" in err
        assert "[line" in err

    def test_malformed_data_csv(self, fast_cfg, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("n,intensity\n0,0.5\n1,not-a-number\n")
        code = main(["fit", "--config", str(fast_cfg), "--data", str(data),
                     "--out", str(tmp_path / "fit.txt")])
        assert code == 2
        assert "input: DataFormatError" in capsys.readouterr().err


class TestHelpAndVersion:
    def test_help_lists_every_config_key(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        for key in KEY_TABLE:
            assert key in text

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "vdwgrating" in capsys.readouterr().out

    def test_console_script_entry_point(self):
        exe = shutil.which("vdwgrating")
        cmd = [exe, "--version"] if exe else \
            [sys.executable, "-m", "vdwgrating.cli", "--version"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0
        assert "vdwgrating" in proc.stdout
