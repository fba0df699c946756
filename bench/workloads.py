"""Seeded inputs and the operations of the three benchmark workloads.

orders  velocity-averaged order intensities (n_max = 10, 11 nodes), 1%
        multiplicative noise on orders 1..10, then fit_c3.  Every slit
        integral sees at most 11 distinct b, so the wall-phase panels of
        the slit quadrature do most of the work.
scan    synthesize_scan (1% noise, 100 slits) over SCAN_POINTS angles
        spanning +-(n_max + 1/2) orders, then save_scan_csv.  Every b is
        distinct, so the cos-dot of the slit quadrature does most of the
        work.
cli     cold-start runs of the command line on both shipped configs:
        theory (kk, one-osc), synth, simulate, fit.  Every run pays
        interpreter start and `import vdwgrating`.

Candidates left out:
- scan -> peaks -> fit as one op: at 4001 angles the peaks are about two
  samples wide; in a trial Ne* fit_gaussian_peaks raised FitFailureError
  and He* returned 4.22 +- 0.035 against 4.1.  A grid that resolves the
  peaks costs 25-75 s per op.
- theory --route table: no polarizability table is shipped.
- the tier-1 test suite's wall time (103 s): the tests change with every
  change to the code, so it does not compare two commits.
- quadrature node counts: not visible from outside the package until
  _slit_integrals reports them.

Draws for orders and scan alternate He* and Ne*.  A species' k-th draw is
point k of a quasi-random sequence over (C3 in [1, 10] meV nm^3, velocity
within +-25% of the config value, wedge angle in [0, 30] degrees), moved
by a seeded shift of up to JITTER of each range and clamped to it.  Op
cost depends mostly on the wedge angle and on C3/v; the first k points of
the sequence cover these ranges evenly for every k, and the shift keeps
each draw near its point, so every run holds nearly the same mix of cheap
and dear ops and its medians hardly depend on the seed, while each seed
still gives inputs of its own.  Noise comes from the same seeded stream.
Draw i of a seed is a function of (seed, i) alone, so the worker and the
oracle check's replay regenerate the same inputs.
"""

import dataclasses
import hashlib
import math
import os

import numpy as np

CONFIGS = {"he": "configs/he_star.cfg", "ne": "configs/ne_star.cfg"}
SPECIES = ("he", "ne")

NOISE = 0.01
N_SLITS = 100
QUAD_POINTS = 11
# The CLI scans 4001 angles by default.  At 4001 one scan op takes
# 8-14 s on a 2-CPU host, so a run would hold two or three ops and its
# medians would spread by more than any bound the benchmark could keep.
# 801 distinct b still leave the cos-dot doing almost all of the work.
SCAN_POINTS = 801
CLI_OUTPUTS = ("theory_kk_{}.txt", "eps_{}.csv", "theory_one_osc_{}.txt",
               "noisy_{}.csv", "orders_{}.csv", "fit_{}.txt")


# Roberts' additive recurrence in three dimensions, frac(1/2 + k a_j) with
# a_j = g^-j and g the real root of g^4 = g + 1: the first k points of it
# spread evenly over the unit cube, for every k.
_G = 1.2207440846057596
_STEPS = np.array([_G**-1, _G**-2, _G**-3])
JITTER = 1.0 / 64.0
# Untraced runs hold whole passes: PASS draws (half He*, half Ne*), or
# CLI_PASS command-line runs (two cycles).  Op costs cluster by species,
# wedge angle and subcommand, so a run that stopped part-way through a
# pass would move its median between clusters from one seed to the next.
PASS = 12
CLI_CYCLE = 10
CLI_PASS = 2 * CLI_CYCLE


def draw(seed, i):
    """Inputs of op i of an orders or scan run with this seed."""
    rng = np.random.default_rng([seed, i])
    jitter = JITTER * (2.0 * rng.random(3) - 1.0)
    u = np.clip((0.5 + (i // 2) * _STEPS) % 1.0 + jitter, 0.0, 1.0)
    return {
        "species": SPECIES[i % 2],
        "c3": 1.0 + 9.0 * u[0],
        "v_factor": 0.75 + 0.5 * u[1],
        "beta_deg": 30.0 * u[2],
        "xi": rng.standard_normal(10).tolist(),
        "noise_seed": int(rng.integers(0, 2**31)),
    }


def load_configs():
    from vdwgrating import config

    return {sp: config.load_config(path) for sp, path in CONFIGS.items()}


def physics(spec, cfg):
    """(Potential, GratingGeometry, BeamState) of one draw."""
    from vdwgrating.grating import Potential

    geometry = dataclasses.replace(
        cfg.geometry, wedge_angle=math.radians(spec["beta_deg"]))
    beam = dataclasses.replace(
        cfg.beam, velocity=cfg.beam.velocity * spec["v_factor"])
    return Potential(spec["c3"]), geometry, beam


def scan_grid(beam, geometry, n_max):
    """The CLI's scan grid: +-(n_max + 1/2) orders, SCAN_POINTS angles."""
    s_max = (n_max + 0.5) * beam.wavelength / geometry.period
    theta_max = math.asin(min(s_max, 1.0))
    return np.linspace(-theta_max, theta_max, SCAN_POINTS)


def orders_op(spec, cfgs, out_path):
    """One orders op; returns (averaged intensities, C3FitResult)."""
    from vdwgrating import grating, inference
    from vdwgrating.grating import OrderIntensities

    cfg = cfgs[spec["species"]]
    potential, geometry, beam = physics(spec, cfg)
    averaged = grating.velocity_averaged_intensities(
        potential, geometry, beam, n_max=cfg.n_max,
        quad_points=QUAD_POINTS, tol=cfg.tolerance)
    # synthesize_orders' noise model, on orders 1..10 of the average
    orders = tuple(range(1, 11))
    clean = np.array([averaged[n] for n in orders])
    clean = clean / clean.sum()
    noisy = np.clip(clean * (1.0 + NOISE * np.asarray(spec["xi"])), 0.0,
                    None)
    observed = OrderIntensities.from_raw(orders, noisy, NOISE * clean)
    fit = inference.fit_c3(observed, geometry, beam, tol=cfg.tolerance)
    return averaged, fit


def scan_op(spec, cfgs, out_path):
    """One scan op; returns the AngularScan it wrote to out_path."""
    from vdwgrating import dataio, inference

    cfg = cfgs[spec["species"]]
    potential, geometry, beam = physics(spec, cfg)
    scan = inference.synthesize_scan(
        potential, geometry, beam, scan_grid(beam, geometry, cfg.n_max),
        n_slits=N_SLITS, noise_fraction=NOISE, seed=spec["noise_seed"],
        tol=cfg.tolerance)
    dataio.save_scan_csv(out_path, scan)
    return scan


def digest(workload, result, out_path):
    """sha256 of every output of one orders or scan op."""
    h = hashlib.sha256()
    if workload == "orders":
        averaged, fit = result
        for a in (averaged.intensity, averaged.sigma, fit.residuals,
                  np.array([fit.c3, fit.uncertainty, fit.chi2,
                            fit.evaluations], dtype=float)):
            h.update(np.ascontiguousarray(a).tobytes())
    else:
        h.update(result.angles.tobytes())
        h.update(result.values.tobytes())
        with open(out_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


IN_PROCESS_OPS = {"orders": orders_op, "scan": scan_op}


def cli_cycle(seed, cycle, out_dir, data_dir):
    """(subcommand, argv) of the CLI_CYCLE command-line runs of a cycle.

    Outputs go to out_dir, named as in CLI_OUTPUTS.  fit reads the synth
    output in data_dir, so a traced and an untraced fit read the same file
    and write the same report.
    """
    rng = np.random.default_rng([seed, cycle])
    runs = []
    for sp in SPECIES:
        cfg = CONFIGS[sp]
        synth_seed = str(int(rng.integers(0, 2**31)))
        out = {name: os.path.join(out_dir, name.format(sp))
               for name in CLI_OUTPUTS}
        runs += [
            ("theory", ["theory", "--config", cfg, "--route", "kk",
                        "--out", out["theory_kk_{}.txt"],
                        "--dump-eps", out["eps_{}.csv"]]),
            ("theory", ["theory", "--config", cfg, "--route", "one-osc",
                        "--out", out["theory_one_osc_{}.txt"]]),
            ("synth", ["synth", "--config", cfg, "--noise", repr(NOISE),
                       "--seed", synth_seed, "--out", out["noisy_{}.csv"]]),
            ("simulate", ["simulate", "--config", cfg,
                          "--out", out["orders_{}.csv"]]),
            ("fit", ["fit", "--config", cfg,
                     "--data", os.path.join(data_dir, f"noisy_{sp}.csv"),
                     "--out", out["fit_{}.txt"]]),
        ]
    return runs
