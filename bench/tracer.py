"""Per-layer timing of vdwgrating, measured from outside the package.

Tracer swaps timing wrappers in for a fixed set of vdwgrating functions
while it is installed.  A function is replaced in every vdwgrating module
that holds it under some name, so calls made from inside the package (for
example grating's own calls to _slit_integrals, or cli's imported
`load_config`) are seen.  CachedDielectric is a class that lifshitz checks
with isinstance, so its __init__ is wrapped instead of the name.

Each wrapped call adds to its layer's busy time `s`, its self time
`self_s` (busy time minus the time spent in wrapped calls it made) and its
call count, plus any counts the target's counter reads off the arguments
or the result.

Run as a script, this file is the traced CLI entry point:

    python bench/tracer.py STATS.json simulate --config ... --out ...

runs `vdwgrating.cli.main` with the tracer installed and writes the layer
totals to STATS.json.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _b_values(args, kwargs, result):
    return {"b_values": len(args[3])}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


# (defining module, attribute, layer name, counter)
TARGETS = (
    ("vdwgrating.grating", "_slit_integrals", "grating._slit_integrals",
     _b_values),
    ("vdwgrating.grating", "velocity_averaged_intensities",
     "grating.velocity_averaged_intensities", None),
    ("vdwgrating.grating", "angular_pattern", "grating.angular_pattern",
     None),
    # defined in grating; named for its role as fit_c3's model evaluation
    ("vdwgrating.grating", "intensities_for_orders",
     "inference.intensities_for_orders", None),
    ("vdwgrating.inference", "fit_c3", "inference.fit_c3", _evaluations),
    ("vdwgrating.lifshitz", "eps_imaginary_axis",
     "lifshitz.eps_imaginary_axis", None),
    ("vdwgrating.lifshitz", "c3_lifshitz", "lifshitz.c3_lifshitz", None),
    ("vdwgrating.config", "load_config", "config.load_config", None),
    ("vdwgrating.dataio", "load_orders_csv", "dataio.load_orders_csv", None),
    ("vdwgrating.dataio", "save_orders_csv", "dataio.save_orders_csv", None),
    ("vdwgrating.dataio", "save_scan_csv", "dataio.save_scan_csv", None),
    ("vdwgrating.dataio", "write_report", "dataio.write_report", None),
)


class Tracer:
    """Layer totals of the calls made while installed."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack = []  # time spent in wrapped children, per open call

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                st = self.stats[layer]
                st["s"] += dt
                st["self_s"] += dt - children
                st["calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.stats[layer][key] += value
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        try:
            for mod_name, attr, layer, counter in TARGETS:
                orig = getattr(importlib.import_module(mod_name), attr)
                wrapper = self._wrap(layer, orig, counter)
                for name, mod in list(sys.modules.items()):
                    if not name.startswith("vdwgrating"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            cls = importlib.import_module("vdwgrating.lifshitz").CachedDielectric
            restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap("lifshitz.CachedDielectric",
                                      cls.__init__, None)
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    def totals(self):
        return {layer: dict(st) for layer, st in self.stats.items()}


def merge_totals(into, totals):
    """Add one Tracer.totals() dict into another, in place."""
    for layer, st in totals.items():
        dst = into.setdefault(layer, {})
        for key, value in st.items():
            dst[key] = dst.get(key, 0.0) + value


def _traced_cli(stats_path, argv):
    import vdwgrating.cli

    tracer = Tracer()
    with tracer.installed():
        code = vdwgrating.cli.main(argv)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
