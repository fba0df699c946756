#!/usr/bin/env python3
"""Print a C3 comparison table for the shipped He* and Ne* configs.

Columns: full Kramers-Kronig route, one-oscillator closed form, and the
measured beam values with their errors.  Run from the repository root:

    python scripts/theory_table.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vdwgrating import (  # noqa: E402
    CachedDielectric,
    c3_lifshitz,
    c3_one_oscillator,
)
from vdwgrating.config import load_config  # noqa: E402
from vdwgrating.constants import EXPERIMENTAL_C3_MEV_NM3  # noqa: E402

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def main():
    rows = []
    for name in ("he_star.cfg", "ne_star.cfg"):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        cache = CachedDielectric(cfg.material)
        kk = c3_lifshitz(cfg.atom, cache)
        one = c3_one_oscillator(cfg.atom.alpha0, cache.g0, cfg.atom.energy,
                                cfg.es_ev)
        exp, err = EXPERIMENTAL_C3_MEV_NM3[cfg.species]
        rows.append((cfg.species, kk.c3, kk.error, one, exp, err, cache.g0))

    print(f"{'species':8s} {'C3 (KK)':>12s} {'C3 (one-osc)':>13s} "
          f"{'C3 (beam)':>12s} {'g0':>8s}")
    print("-" * 58)
    for sp, kk, kerr, one, exp, err, g0 in rows:
        print(f"{sp:8s} {kk:8.4f} meV nm^3 {one:9.4f} "
              f"{exp:8.1f} +- {err:.1f} {g0:8.4f}")
    print("\neps(iE) comes from the closed-form Kramers-Kronig transform; C3 "
          f"quadrature errors are below {max(r[2] for r in rows):.1e} "
          "meV nm^3.")


if __name__ == "__main__":
    main()
