"""Line-oriented run configuration.

Grammar: one `section.key = value` assignment per line; blank lines and
lines starting with `#` are ignored.  The keys are those of KEY_TABLE,
which gives each one's converter, range check, default and help text;
`vdwgrating --help` prints it.  Unknown keys, duplicates, type errors and
range violations raise ConfigError carrying the line number.

The four material.*_ev keys form a group: give all or none.  Likewise
atom.alpha0_nm3 and atom.ea_ev come as a pair.  Which optional keys a
command actually needs depends on the theory route; parsing only checks
structural consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InvalidInputError
from .grating import BeamState, GratingGeometry, Potential
from .lifshitz import OneOscillatorAtom, TaucLorentzParams

__all__ = ["KEY_TABLE", "REQUIRED", "RunConfig", "load_config",
           "parse_config"]


def _int_value(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _float_value(raw):
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"not finite: {raw!r}")
    return v


def _str_value(raw):
    if not raw:
        raise ValueError("empty value")
    return raw


def _positive(v):
    return v > 0


# the KEY_TABLE default of a key every config must give
REQUIRED = object()

# key -> (converter, range check or None, default, help text); a default of
# None marks an optional key that is left out when absent
KEY_TABLE = {
    "geometry.d": (_float_value, _positive, REQUIRED, "grating period, nm"),
    "geometry.s0": (_float_value, _positive, REQUIRED,
                    "slit width, nm (0 < s0 < d)"),
    "geometry.t": (_float_value, _positive, REQUIRED, "bar depth, nm"),
    "geometry.beta_deg": (_float_value, lambda v: 0 <= v < 90, REQUIRED,
                          "wall wedge angle, degrees [0, 90)"),
    "beam.species": (_str_value, None, REQUIRED, "label, e.g. He*"),
    "beam.mass_u": (_float_value, _positive, REQUIRED, "atom mass, u"),
    "beam.velocity_mps": (_float_value, _positive, REQUIRED,
                          "mean beam velocity, m/s"),
    "beam.dv_over_u": (_float_value, lambda v: 0 <= v < 1, 0.0,
                       "relative velocity FWHM [0, 1)"),
    "potential.c3_mev_nm3": (_float_value, lambda v: v >= 0, REQUIRED,
                             "wall C3, meV nm^3 (>= 0)"),
    "material.band_gap_ev": (_float_value, _positive, None,
                             "Tauc-Lorentz band gap, eV"),
    "material.strength_ev": (_float_value, _positive, None,
                             "Tauc-Lorentz strength, eV"),
    "material.resonance_ev": (_float_value, _positive, None,
                              "Tauc-Lorentz resonance, eV"),
    "material.width_ev": (_float_value, _positive, None,
                          "Tauc-Lorentz width, eV"),
    "material.g0": (_float_value, lambda v: 0 < v < 1, None,
                    "static surface response (0, 1)"),
    "material.es_ev": (_float_value, _positive, None,
                       "surface oscillator energy, eV"),
    "atom.alpha0_nm3": (_float_value, _positive, None,
                        "static polarizability, nm^3"),
    "atom.ea_ev": (_float_value, _positive, None,
                   "atom oscillator energy, eV"),
    "atom.table": (_str_value, None, None, "path to an alpha(iE) table"),
    "run.n_max": (_int_value, lambda v: v >= 1, REQUIRED,
                  "highest diffraction order (>= 1)"),
    "run.tolerance": (_float_value, lambda v: 0 < v <= 1e-2, 1e-8,
                      "quadrature tolerance (0, 1e-2]"),
    "run.seed": (_int_value, lambda v: v >= 0, 0, "RNG seed (>= 0)"),
}

_REQUIRED = [key for key, spec in KEY_TABLE.items() if spec[2] is REQUIRED]

# keys that come all or none
_GROUPS = (
    ("material group", ("material.band_gap_ev", "material.strength_ev",
                        "material.resonance_ev", "material.width_ev")),
    ("atom pair", ("atom.alpha0_nm3", "atom.ea_ev")),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    values holds the converted (key, value) pairs, defaults applied, in
    KEY_TABLE order; absent optional keys are left out.  The other fields
    are built from them.  material / atom / surface pieces are None when
    their keys are absent; commands that need them raise ConfigError at
    dispatch.
    """

    values: tuple
    species: str
    geometry: GratingGeometry
    beam: BeamState
    potential: Potential
    n_max: int
    tolerance: float
    seed: int
    material: TaucLorentzParams | None = None
    g0: float | None = None
    es_ev: float | None = None
    atom: OneOscillatorAtom | None = None
    table_path: str | None = None

    def resolved_items(self):
        """Canonical `key = value` pairs, defaults applied.

        Floats are written with repr, so a written report re-parses to
        bit-identical values.
        """
        return [(key, repr(v) if isinstance(v, float) else str(v))
                for key, v in self.values]


def parse_config(text, source="<config>"):
    """Parse config text into a RunConfig.  See the module docstring."""
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: expected 'section.key = value'",
                              line=lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key.count(".") != 1 or not all(key.split(".")):
            raise ConfigError(f"{source}: malformed key {key!r}",
                              line=lineno, key=key or None)
        if key not in KEY_TABLE:
            raise ConfigError(f"{source}: unknown key {key!r}",
                              line=lineno, key=key)
        if key in values:
            raise ConfigError(f"{source}: duplicate key {key!r}",
                              line=lineno, key=key)
        convert, check, _, _ = KEY_TABLE[key]
        try:
            value = convert(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}: {key}: {exc}",
                              line=lineno, key=key) from None
        if check is not None and not check(value):
            raise ConfigError(f"{source}: {key}: value {raw_value} out of "
                              "range", line=lineno, key=key)
        values[key] = value
        lines[key] = lineno

    if not values:
        sections = dict.fromkeys(key.split(".")[0] for key in _REQUIRED)
        raise ConfigError(f"{source}: empty configuration; required "
                          "sections: " + ", ".join(sections))
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing required key(s): "
                          + ", ".join(missing))
    for name, keys in _GROUPS:
        present = [k for k in keys if k in values]
        if present and len(present) != len(keys):
            absent = sorted(set(keys) - set(present))
            raise ConfigError(
                f"{source}: partial {name}; also need " + ", ".join(absent),
                line=lines[present[0]])
    values = {key: values.get(key, spec[2])
              for key, spec in KEY_TABLE.items()
              if key in values or spec[2] is not None}

    try:
        geometry = GratingGeometry(
            period=values["geometry.d"],
            slit_width=values["geometry.s0"],
            bar_depth=values["geometry.t"],
            wedge_angle=math.radians(values["geometry.beta_deg"]))
    except InvalidInputError as exc:
        raise ConfigError(f"{source}: geometry: {exc}",
                          line=lines["geometry.s0"]) from None
    material = None
    if "material.band_gap_ev" in values:
        material = TaucLorentzParams(
            band_gap=values["material.band_gap_ev"],
            strength=values["material.strength_ev"],
            resonance=values["material.resonance_ev"],
            width=values["material.width_ev"])
    atom = None
    if "atom.alpha0_nm3" in values:
        atom = OneOscillatorAtom(alpha0=values["atom.alpha0_nm3"],
                                 energy=values["atom.ea_ev"])

    return RunConfig(
        values=tuple(values.items()),
        species=values["beam.species"],
        geometry=geometry,
        beam=BeamState(mass_u=values["beam.mass_u"],
                       velocity=values["beam.velocity_mps"],
                       dv_over_u=values["beam.dv_over_u"]),
        potential=Potential(c3=values["potential.c3_mev_nm3"]),
        n_max=values["run.n_max"],
        tolerance=values["run.tolerance"],
        seed=values["run.seed"],
        material=material,
        g0=values.get("material.g0"),
        es_ev=values.get("material.es_ev"),
        atom=atom,
        table_path=values.get("atom.table"))


def load_config(path):
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))
