#!/usr/bin/env python3
"""Closed-loop demonstration: synthesize noisy data, recover C3.

Two loops on the He* configuration:

  1. order level: synthesize_orders -> fit_c3
  2. scan level:  synthesize_scan -> scan_order_intensities -> fit_c3

Run from the repository root:  python scripts/roundtrip_demo.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vdwgrating import (  # noqa: E402
    fit_c3,
    scan_order_intensities,
    synthesize_orders,
    synthesize_scan,
)
from vdwgrating.config import load_config  # noqa: E402

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "he_star.cfg")


def main():
    cfg = load_config(CONFIG)
    true_c3 = cfg.potential.c3

    orders = tuple(range(1, cfg.n_max + 1))
    noisy = synthesize_orders(cfg.potential, cfg.geometry, cfg.beam, orders,
                              noise_fraction=0.01, seed=cfg.seed)
    res = fit_c3(noisy, cfg.geometry, cfg.beam)
    print(f"order-level loop: true C3 = {true_c3}, fitted "
          f"{res.c3:.4f} +- {res.uncertainty:.4f} meV nm^3 "
          f"({res.evaluations} model evaluations)")

    lam = cfg.beam.wavelength
    theta_max = (cfg.n_max + 0.5) * lam / cfg.geometry.period
    grid = np.linspace(-theta_max, theta_max, 30001)
    scan = synthesize_scan(cfg.potential, cfg.geometry, cfg.beam, grid,
                           n_slits=100, noise_fraction=0.01, seed=cfg.seed)
    observed = scan_order_intensities(scan, orders, cfg.geometry, cfg.beam)
    res2 = fit_c3(observed, cfg.geometry, cfg.beam)
    print(f"scan-level loop:  true C3 = {true_c3}, fitted "
          f"{res2.c3:.4f} +- {res2.uncertainty:.4f} meV nm^3")


if __name__ == "__main__":
    main()
