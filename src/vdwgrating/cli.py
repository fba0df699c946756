"""Command-line interface.

Subcommands:
    simulate   order intensities or a clean angular scan from a config
    synth      the same observables with seeded multiplicative noise
    fit        C3 from an order-intensity CSV
    theory     Lifshitz prediction of C3 (kk, one-osc or table route)

Exit codes: 0 success, 1 usage error, 2 config or data error,
3 numerical failure.  Every failure prints a single machine-readable
line to stderr:

    error: <category>: <ErrorType>: <message>

with category in {usage, input, numerical}.  Reports embed the resolved
configuration under `config.` keys, so a report can be re-parsed to
reproduce the run exactly.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .config import KEY_TABLE, REQUIRED, load_config
from .dataio import (
    load_orders_csv,
    load_polarizability_table,
    save_eps_csv,
    save_orders_csv,
    save_scan_csv,
    write_report,
)
from .errors import (
    ConfigError,
    DataFormatError,
    InvalidInputError,
    ToolkitError,
)
from .grating import OrderIntensities, angular_pattern, \
    velocity_averaged_intensities
from .inference import RNG_ALGORITHM, fit_c3, synthesize_orders, \
    synthesize_scan
from .lifshitz import (
    C3Result,
    CachedDielectric,
    c3_lifshitz,
    c3_one_oscillator,
    static_response_g0,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _key_table_help():
    lines = ["config keys (one 'section.key = value' per line):"]
    for key, (_, _, default, text) in KEY_TABLE.items():
        status = ("required" if default is REQUIRED else
                  "optional" if default is None else f"default {default!r}")
        lines.append(f"  {key:22s} {status:14s} {text}")
    return "\n".join(lines)


def _build_parser():
    epilog = _key_table_help()
    parser = _Parser(
        prog="vdwgrating",
        description=(
            "Atom-beam diffraction from a transmission grating with an "
            "attractive -C3/l^3 wall potential: simulate order "
            "intensities, synthesize noisy data, fit C3, and predict C3 "
            "from Lifshitz theory."),
        epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, text):
        return sub.add_parser(
            name, help=text, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="path to a run config file")
        p.add_argument("--out", required=True, help="output path")

    def add_observable(p, min_order=False):
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--orders", action="store_true",
                          help="write order intensities (default)")
        mode.add_argument("--scan", action="store_true",
                          help="write an angular scan")
        if min_order:
            p.add_argument("--min-order", type=int, default=1,
                           help="lowest synthesized order (default 1)")
        p.add_argument("--points", type=int, default=4001,
                       help="scan grid size, 16 to 10^6 (default 4001)")
        p.add_argument("--n-slits", type=int, default=100,
                       help="coherently illuminated slits (default 100)")

    p_sim = add_command("simulate", "clean order intensities or angular scan")
    add_common(p_sim)
    add_observable(p_sim)
    p_sim.add_argument("--quad-points", type=int, default=11,
                       help="velocity-average nodes, odd, at most 101 "
                            "(default 11)")

    p_syn = add_command("synth", "noisy synthetic observables")
    add_common(p_syn)
    p_syn.add_argument("--noise", type=float, required=True,
                       help="relative noise amplitude, e.g. 0.01")
    p_syn.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: run.seed from config)")
    add_observable(p_syn, min_order=True)

    p_fit = add_command("fit", "fit C3 to measured order intensities")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--data", required=True,
                       help="order-intensity CSV (n,intensity[,sigma])")
    p_fit.add_argument("--out", required=True, help="report path")
    p_fit.add_argument("--c3-min", type=float, default=0.0,
                       help="lower C3 search bound (default 0)")
    p_fit.add_argument("--c3-max", type=float, default=20.0,
                       help="upper C3 search bound (default 20)")

    p_th = add_command("theory", "Lifshitz-theory C3 prediction")
    p_th.add_argument("--config", required=True)
    p_th.add_argument("--out", required=True, help="report path")
    p_th.add_argument("--route", choices=("kk", "one-osc", "table"),
                      default="kk",
                      help="kk: full Kramers-Kronig surface response; "
                           "one-osc: closed-form Lorentz surface; "
                           "table: tabulated alpha(iE) (default kk)")
    p_th.add_argument("--dump-eps", metavar="PATH", default=None,
                      help="also write the cached eps(iE) grid as CSV "
                           "(kk and table routes)")
    return parser


def _report_header(command):
    return [("tool.name", "vdwgrating"),
            ("tool.version", __version__),
            ("tool.command", command)]


def _config_items(cfg):
    return [("config." + k, v) for k, v in cfg.resolved_items()]


# a scan holds a few float arrays of this length; the default is 4001
_MAX_SCAN_POINTS = 10**6


def _scan_grid(cfg, points):
    if not 16 <= points <= _MAX_SCAN_POINTS:
        raise InvalidInputError(
            f"need 16 to {_MAX_SCAN_POINTS} scan points, got {points}")
    s_max = (cfg.n_max + 0.5) * cfg.beam.wavelength / cfg.geometry.period
    theta_max = math.asin(min(s_max, 1.0))
    return np.linspace(-theta_max, theta_max, points)


def _cmd_simulate(args):
    cfg = load_config(args.config)
    if args.scan:
        grid = _scan_grid(cfg, args.points)
        scan = angular_pattern(grid, cfg.potential, cfg.geometry, cfg.beam,
                               n_slits=args.n_slits, tol=cfg.tolerance)
        save_scan_csv(args.out, scan)
        print(f"wrote scan ({scan.angles.size} samples, "
              f"n_slits = {scan.n_slits}) to {args.out}")
        return 0
    oi = velocity_averaged_intensities(
        cfg.potential, cfg.geometry, cfg.beam, n_max=cfg.n_max,
        quad_points=args.quad_points, tol=cfg.tolerance)
    # without sigma: the model has no measurement error, and the quadrature
    # error estimate is not one, so fit runs unweighted on this file
    save_orders_csv(args.out, OrderIntensities(oi.orders, oi.intensity))
    print(f"wrote {len(oi.orders)} order intensities to {args.out}")
    return 0


def _cmd_synth(args):
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    if args.scan:
        grid = _scan_grid(cfg, args.points)
        scan = synthesize_scan(
            cfg.potential, cfg.geometry, cfg.beam, grid,
            n_slits=args.n_slits, noise_fraction=args.noise, seed=seed,
            tol=cfg.tolerance)
        save_scan_csv(args.out, scan, metadata={
            "rng_algorithm": RNG_ALGORITHM, "seed": seed,
            "noise_fraction": repr(args.noise)})
        print(f"wrote noisy scan (seed {seed}) to {args.out}")
        return 0
    if args.min_order > cfg.n_max:
        raise _UsageError("--min-order exceeds run.n_max")
    orders = tuple(range(args.min_order, cfg.n_max + 1))
    oi = synthesize_orders(cfg.potential, cfg.geometry, cfg.beam, orders,
                           noise_fraction=args.noise, seed=seed,
                           tol=cfg.tolerance)
    save_orders_csv(args.out, oi)
    print(f"wrote {len(oi.orders)} noisy order intensities "
          f"(seed {seed}, rng {RNG_ALGORITHM}) to {args.out}")
    return 0


def _cmd_fit(args):
    cfg = load_config(args.config)
    observed = load_orders_csv(args.data)
    result = fit_c3(observed, cfg.geometry, cfg.beam,
                    bounds=(args.c3_min, args.c3_max), tol=cfg.tolerance)
    items = _report_header("fit")
    items += [
        ("result.c3_mev_nm3", repr(result.c3)),
        ("result.uncertainty_mev_nm3", repr(result.uncertainty)),
        ("result.chi2", repr(result.chi2)),
        ("result.evaluations", str(result.evaluations)),
        ("result.orders", " ".join(str(n) for n in result.orders)),
    ]
    items += [(f"residual.{n}", f"{r:.8e}")
              for n, r in zip(result.orders, result.residuals)]
    items += [("diag.fit_degree", str(result.degree)),
              ("diag.fit_surrogate_error", repr(result.surrogate_error)),
              ("diag.fit_bound_limited", str(result.bound_limited).lower())]
    items += [("data.path", str(args.data))]
    items += _config_items(cfg)
    write_report(args.out, items)
    print(f"C3 = {result.c3:.6g} +- {result.uncertainty:.2g} meV nm^3 "
          f"(chi2 = {result.chi2:.4g}, {result.evaluations} model "
          f"evaluations); report: {args.out}")
    return 0


def _resolve_table_path(cfg, config_path):
    path = cfg.table_path
    if not os.path.isabs(path):
        path = os.path.join(os.path.dirname(os.path.abspath(config_path)),
                            path)
    return path


def _cmd_theory(args):
    cfg = load_config(args.config)
    route = args.route
    if args.dump_eps is not None and route == "one-osc":
        raise _UsageError("--dump-eps needs a route that evaluates the "
                          "Tauc-Lorentz eps(iE) (kk or table)")
    cache = None
    if route in ("kk", "table"):
        if cfg.material is None:
            raise ConfigError(
                f"theory route {route!r} needs the material.*_ev group")
        cache = CachedDielectric(cfg.material)
    if route == "kk":
        if cfg.atom is None:
            raise ConfigError(
                "theory route 'kk' needs atom.alpha0_nm3 and atom.ea_ev")
        res = c3_lifshitz(cfg.atom, cache, tol=min(cfg.tolerance, 1e-6))
        g0 = cache.g0
    elif route == "table":
        if cfg.table_path is None:
            raise ConfigError("theory route 'table' needs atom.table")
        table = load_polarizability_table(_resolve_table_path(
            cfg, args.config))
        res = c3_lifshitz(table, cache, tol=min(cfg.tolerance, 1e-6))
        g0 = cache.g0
    else:
        if cfg.atom is None:
            raise ConfigError(
                "theory route 'one-osc' needs atom.alpha0_nm3 and "
                "atom.ea_ev")
        if cfg.es_ev is None:
            raise ConfigError("theory route 'one-osc' needs material.es_ev")
        if cfg.g0 is not None:
            g0 = cfg.g0
        elif cfg.material is not None:
            g0 = static_response_g0(cfg.material)
        else:
            raise ConfigError(
                "theory route 'one-osc' needs material.g0 or the "
                "material.*_ev group to derive it")
        res = C3Result(
            c3=c3_one_oscillator(cfg.atom.alpha0, g0, cfg.atom.energy,
                                 cfg.es_ev),
            error=0.0)

    if args.dump_eps is not None:
        save_eps_csv(args.dump_eps, cache.grid, cache.values)

    items = _report_header("theory")
    items += [
        ("result.route", route),
        ("result.species", cfg.species),
        ("result.c3_mev_nm3", repr(res.c3)),
        ("result.c3_error_mev_nm3", repr(res.error)),
        ("result.g0", repr(g0)),
    ]
    items += _config_items(cfg)
    write_report(args.out, items)
    print(f"{cfg.species}: C3 = {res.c3:.6g} meV nm^3 "
          f"(route {route}, g0 = {g0:.6g}); report: {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "theory": _cmd_theory,
}


def _fail(category, exc):
    message = " ".join(str(exc).split())
    print(f"error: {category}: {type(exc).__name__}: {message}",
          file=sys.stderr)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _fail("usage", exc)
        return 1
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return int(code) if code else 0
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _fail("usage", exc)
        return 1
    except (ConfigError, DataFormatError, InvalidInputError, OSError) as exc:
        _fail("input", exc)
        return 2
    except ToolkitError as exc:
        _fail("numerical", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
