"""Lifshitz theory of the atom-surface C3 coefficient.

In the nonretarded limit the wall coefficient is an integral over
imaginary frequency,

    C3 = (hbar / 4 pi) Int_0^inf alpha(i w) g(i w) dw,
    g  = (eps(i w) - 1) / (eps(i w) + 1),

which in the energy variable E = hbar w and with alpha in nm^3 gives
C3 [meV nm^3] = 1000 / (4 pi) * Int alpha(iE) g(iE) dE [eV].

The dielectric function on the imaginary axis follows from the
absorptive spectrum by the Kramers-Kronig relation

    eps(i E) = 1 + (2 / pi) Int_0^inf E' eps2(E') / (E'^2 + E^2) dE',

evaluated here for a Tauc-Lorentz model of an amorphous insulator
(Jellison & Modine, APL 69, 371 (1996)):

    eps2(E) = E_A E_O E_G (E - E_T)^2
              / { [(E^2 - E_O^2)^2 + E_G^2 E^2] E }     for E > E_T,
    eps2(E) = 0                                          below the gap,

with band gap E_T, strength E_A, resonance E_O and width E_G, all in eV.
E' eps2(E') is rational, so the transform has a closed form over the
four roots p of (E'^2 - E_O^2)^2 + E_G^2 E'^2 (see eps_imaginary_axis);
no quadrature and no spectral cut-off enter.

The atom enters through alpha(iE): either a one-oscillator form
alpha0 / (1 + (E/E_a)^2) with E_a fixed by the known C6 via
E_a = 4 C6 / (3 alpha0^2), or a tabulated alpha(iE).  For surfaces
described by a single Lorentz oscillator, g(iE) = g0 / (1 + (E/E_S)^2),
the C3 integral collapses to the closed form

    C3 = alpha0 g0 E_a E_S / (8 (E_a + E_S)).

All energies eV, polarizabilities nm^3, C3 meV nm^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidInputError, QuadratureError
from .grating import _finite, _require

__all__ = [
    "C3Result",
    "CachedDielectric",
    "LorentzSurface",
    "OneOscillatorAtom",
    "TabulatedPolarizability",
    "TaucLorentzParams",
    "c3_lifshitz",
    "c3_one_oscillator",
    "eps_imaginary_axis",
    "g_from_eps",
    "one_oscillator_alpha",
    "oscillator_energy_from_c6",
    "static_response_g0",
    "tauc_lorentz_eps2",
]

# |4 E_O^2 - E_G^2| / (4 E_O^2) below which eps(iE) is interpolated across
# critical damping, where the two pole pairs merge
_CRITICAL_BAND = 1e-6


@dataclass(frozen=True)
class TaucLorentzParams:
    """Tauc-Lorentz absorption parameters, all in eV and positive."""

    band_gap: float
    strength: float
    resonance: float
    width: float

    def __post_init__(self):
        vals = [self.band_gap, self.strength, self.resonance, self.width]
        _require(_finite(vals), "Tauc-Lorentz parameters must be finite")
        _require(all(v > 0 for v in vals),
                 "Tauc-Lorentz parameters must be positive")


@dataclass(frozen=True)
class LorentzSurface:
    """One-oscillator surface response g(iE) = g0 / (1 + (E/energy)^2)."""

    g0: float
    energy: float

    def __post_init__(self):
        _require(_finite([self.g0, self.energy]),
                 "surface parameters must be finite")
        _require(0 < self.g0 < 1, "g0 must lie in (0, 1)")
        _require(self.energy > 0, "surface energy must be positive")

    def g(self, energy):
        energy = np.asarray(energy, dtype=float)
        out = self.g0 / (1.0 + (energy / self.energy) ** 2)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class OneOscillatorAtom:
    """alpha(iE) = alpha0 / (1 + (E/energy)^2), alpha0 in nm^3, energy in eV."""

    alpha0: float
    energy: float

    def __post_init__(self):
        _require(_finite([self.alpha0, self.energy]),
                 "atom parameters must be finite")
        _require(self.alpha0 > 0, "alpha0 must be positive")
        _require(self.energy > 0, "oscillator energy must be positive")

    def alpha(self, energy):
        return one_oscillator_alpha(energy, self)


@dataclass(frozen=True, eq=False)
class TabulatedPolarizability:
    """alpha(iE) sampled on a grid starting at E = 0.

    Between nodes the curve is interpolated shape-preservingly: up to the
    first positive node by a PCHIP in E through the first four nodes (or
    all of them, if fewer), beyond it by a PCHIP in log E through the
    positive nodes.  Past the last node it falls off as
    alpha_last (E_last / E)^2, the correct asymptotic of any finite-f-sum
    polarizability.
    """

    energy: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        energy = np.asarray(self.energy, dtype=float).copy()
        alpha = np.asarray(self.alpha, dtype=float).copy()
        energy.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "alpha", alpha)
        _require(energy.ndim == 1 and energy.size >= 2,
                 "need at least two table nodes")
        _require(alpha.shape == energy.shape, "column lengths must match")
        _require(_finite(energy) and _finite(alpha), "table must be finite")
        _require(energy[0] == 0.0, "first energy node must be 0")
        _require(np.all(np.diff(energy) > 0),
                 "energies must be strictly increasing")
        _require(np.all(alpha >= 0), "alpha must be nonnegative")
        _require(np.all(np.diff(alpha) <= 0),
                 "alpha(iE) must be non-increasing")
        from scipy.interpolate import PchipInterpolator
        head = min(4, energy.size)
        object.__setattr__(self, "_head",
                           PchipInterpolator(energy[:head], alpha[:head]))
        if energy.size >= 3:
            object.__setattr__(
                self, "_log_tail",
                PchipInterpolator(np.log(energy[1:]), alpha[1:]))
        else:
            object.__setattr__(self, "_log_tail", None)

    @property
    def alpha0(self):
        return float(self.alpha[0])

    def __call__(self, energy):
        e = np.asarray(energy, dtype=float)
        _require(_finite(e) and np.all(e >= 0), "energy must be >= 0")
        e1 = self.energy[1]
        e_last = self.energy[-1]
        scalar = e.ndim == 0
        e = np.atleast_1d(e)
        out = np.empty_like(e)
        lo = e <= e1
        out[lo] = self._head(e[lo])
        mid = (~lo) & (e <= e_last)
        if self._log_tail is not None:
            out[mid] = self._log_tail(np.log(e[mid]))
        else:
            out[mid] = self._head(e[mid])
        hi = e > e_last
        out[hi] = self.alpha[-1] * (e_last / e[hi]) ** 2
        out = np.clip(out, 0.0, None)
        return float(out[0]) if scalar else out


def one_oscillator_alpha(energy, atom):
    """alpha(iE) of a single effective oscillator, nm^3."""
    e = np.asarray(energy, dtype=float)
    out = atom.alpha0 / (1.0 + (e / atom.energy) ** 2)
    return float(out) if out.ndim == 0 else out


def oscillator_energy_from_c6(c6_ev_nm6, alpha0_nm3):
    """Effective oscillator energy E_a = 4 C6 / (3 alpha0^2), eV.

    Follows from matching the one-oscillator alpha(iE) to the London
    formula C6 = (3/4) alpha0^2 E_a for identical atoms.
    """
    _require(_finite([c6_ev_nm6, alpha0_nm3]) and c6_ev_nm6 > 0
             and alpha0_nm3 > 0, "C6 and alpha0 must be positive")
    return 4.0 * c6_ev_nm6 / (3.0 * alpha0_nm3**2)


# ---------------------------------------------------------------------------
# Tauc-Lorentz spectrum and Kramers-Kronig transform


def tauc_lorentz_eps2(energy, params):
    """Absorptive part eps2(E) of the Tauc-Lorentz model (dimensionless)."""
    e = np.asarray(energy, dtype=float)
    _require(_finite(e) and np.all(e >= 0), "energy must be >= 0")
    above = e > params.band_gap
    den = ((e**2 - params.resonance**2) ** 2
           + (params.width * e) ** 2) * np.where(above, e, 1.0)
    num = (params.strength * params.resonance * params.width
           * (e - params.band_gap) ** 2)
    out = np.where(above, num / den, 0.0)
    return float(out) if out.ndim == 0 else out


def _atan_over(x, band_gap):
    """arctan(x / E_T) / x, taken as 1 / E_T where r = x / E_T <= 1e-8
    (there the series 1 - r^2 / 3 rounds to 1)."""
    r = x / band_gap
    ratio = np.ones_like(r)
    far = r > 1e-8
    ratio[far] = np.arctan(r[far]) / r[far]
    return ratio / band_gap


def _log1p_over(w):
    """log(1 + w) / w for complex w, accurate as w -> 0 (limit 1)."""
    lg = np.log(1.0 + w)
    near = np.abs(w) < 0.5
    wn = w[near]
    lg[near] = (0.5 * np.log1p(2.0 * wn.real + np.abs(wn) ** 2)
                + 1j * np.arctan2(wn.imag, 1.0 + wn.real))
    return np.divide(lg, w, out=np.ones_like(w), where=w != 0)


def _pole_sum(x, band_gap, width, s2):
    """Int_{E_T}^inf (E' - E_T)^2 / (Q(E') (E'^2 + x^2)) dE' as a sum over
    the upper-half-plane roots p = (i E_G +- sqrt(s2)) / 2 of Q, with
    s2 = 4 E_O^2 - E_G^2; the lower roots, their conjugates, double the
    real part.
    """
    s = np.sqrt(complex(s2))
    t = _atan_over(x, band_gap)
    total = np.zeros_like(x)
    for sign in (1.0, -1.0):
        p = 0.5 * (1j * width + sign * s)
        # Q'(p) = 4 p^3 + 2 (E_G^2 - 2 E_O^2) p = +-2i E_G s p at these roots
        residue = (p - band_gap) ** 2 / (2j * sign * width * s * p)
        w = (p - 1j * x) / (band_gap - p)
        term = (_log1p_over(w) / (band_gap - p) - t) / (p + 1j * x)
        total += 2.0 * (residue * term).real
    return total


def eps_imaginary_axis(energy, params):
    """eps(iE) of the Tauc-Lorentz model, Kramers-Kronig in closed form.

    Vectorized over energy (eV, >= 0).  With Q(E) = (E^2 - E_O^2)^2 +
    E_G^2 E^2 = prod_k (E - p_k) and residues c_k = (p_k - E_T)^2 / Q'(p_k),

        eps(iE) - 1 = (2/pi) E_A E_O E_G Re sum_k c_k
            [log((E_T - iE) / (E_T - p_k)) - (p_k - iE) arctan(E/E_T) / E]
            / ((p_k - iE) (p_k + iE)),

    where the bracket vanishes with p_k - iE, so the quotient is taken as
    log1p(w) / w with w = (p_k - iE) / (E_T - p_k).  At critical damping
    (E_G = 2 E_O) two pole pairs merge and the residues diverge; within
    a relative band of 1e-6 around it the pole sum is interpolated
    linearly in 4 E_O^2 - E_G^2 between the band edges.
    """
    e = np.asarray(energy, dtype=float)
    _require(_finite(e) and np.all(e >= 0), "energy must be >= 0")
    x = np.atleast_1d(e)
    e_t, e_o, e_g = params.band_gap, params.resonance, params.width
    s2 = (2.0 * e_o - e_g) * (2.0 * e_o + e_g)
    h = _CRITICAL_BAND * 4.0 * e_o**2
    if abs(s2) < h:
        below = _pole_sum(x, e_t, math.sqrt(4.0 * e_o**2 + h), -h)
        above = _pole_sum(x, e_t, math.sqrt(4.0 * e_o**2 - h), h)
        total = below + (above - below) * (s2 + h) / (2.0 * h)
    else:
        total = _pole_sum(x, e_t, e_g, s2)
    out = 1.0 + (2.0 / math.pi) * params.strength * e_o * e_g * total
    return float(out[0]) if e.ndim == 0 else out


def g_from_eps(eps):
    """Surface response g = (eps - 1) / (eps + 1)."""
    eps = np.asarray(eps, dtype=float)
    out = (eps - 1.0) / (eps + 1.0)
    return float(out) if out.ndim == 0 else out


def static_response_g0(params):
    """Static limit g0 = (eps(0) - 1) / (eps(0) + 1) of the model surface."""
    return g_from_eps(eps_imaginary_axis(0.0, params))


class CachedDielectric:
    """eps(iE) of a Tauc-Lorentz surface, evaluated in closed form.

    eps, g and g0 call eps_imaginary_axis directly.  grid holds E = 0
    plus 511 log-spaced energies from 1e-3 to 1e4 eV, and values the
    exact eps(iE) there, as written by `theory --dump-eps`.
    """

    def __init__(self, params):
        self.params = params
        self.grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 511)])
        self.values = eps_imaginary_axis(self.grid, params)

    def eps(self, energy):
        return eps_imaginary_axis(energy, self.params)

    def g(self, energy):
        return g_from_eps(self.eps(energy))

    @property
    def g0(self):
        """Static surface response from the E = 0 grid value."""
        return g_from_eps(float(self.values[0]))


# ---------------------------------------------------------------------------
# C3 integrals


@dataclass(frozen=True)
class C3Result:
    """C3 in meV nm^3 with a numerical error estimate of the same unit."""

    c3: float
    error: float


def _surface_g(surface):
    if isinstance(surface, (LorentzSurface, CachedDielectric)):
        return surface.g
    if isinstance(surface, TaucLorentzParams):
        return lambda energy: g_from_eps(eps_imaginary_axis(energy, surface))
    raise InvalidInputError(
        "surface must be LorentzSurface, CachedDielectric or "
        "TaucLorentzParams")


def _atom_alpha(atom):
    if isinstance(atom, OneOscillatorAtom):
        return atom.alpha, atom.energy
    if isinstance(atom, TabulatedPolarizability):
        # reference scale: energy where alpha first drops to half height
        below = np.nonzero(atom.alpha <= 0.5 * atom.alpha0)[0]
        e_ref = float(atom.energy[below[0]]) if below.size else \
            float(atom.energy[-1])
        return atom, max(e_ref, 1e-3)
    raise InvalidInputError(
        "atom must be OneOscillatorAtom or TabulatedPolarizability")


def c3_lifshitz(atom, surface, tol=1e-8):
    """C3 = (1 / 4 pi) Int_0^inf alpha(iE) g(iE) dE, in meV nm^3.

    The half-line maps to x in [0, pi/2) via E = e_ref tan(x); composite
    Gauss-Legendre panels double until the value moves by less than tol
    relative.  e_ref is the atom's oscillator energy (or the half-height
    energy of a tabulated alpha), which puts the integrand's bulk in the
    middle of the x range.

    Returns a C3Result whose error field is the last doubling change.
    The surface may be a LorentzSurface, a CachedDielectric or raw
    TaucLorentzParams; the latter two give g(iE) in closed form.
    """
    _require(_finite([tol]) and 0 < tol <= 1e-2, "tol must lie in (0, 1e-2]")
    alpha_fn, e_ref = _atom_alpha(atom)
    g_fn = _surface_g(surface)

    x_hi = math.pi / 2.0
    gx, gw = leggauss(16)

    def panel_sum(n_panels):
        edges = np.linspace(0.0, x_hi, n_panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        hw = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + hw[:, None] * gx[None, :]).ravel()
        wts = (hw[:, None] * gw[None, :]).ravel()
        e = e_ref * np.tan(x)
        jac = e_ref / np.cos(x) ** 2
        a = np.asarray(alpha_fn(e), dtype=float)
        return float(np.sum(wts * a * g_fn(e) * jac))

    n = 16
    prev = panel_sum(n)
    while True:
        n *= 2
        cur = panel_sum(n)
        delta = abs(cur - prev) / max(abs(cur), 1e-300)
        if delta <= tol:
            break
        if n >= 2048:
            raise QuadratureError(
                f"C3 integral stalled at {delta:.3e} relative with {n} "
                "panels", achieved=delta)
        prev = cur
    c3 = 1000.0 * cur / (4.0 * math.pi)  # eV nm^3 -> meV nm^3
    err = 1000.0 * abs(cur - prev) / (4.0 * math.pi)
    return C3Result(c3=c3, error=err)


def c3_one_oscillator(alpha0, g0, atom_energy, surface_energy):
    """Closed form for one-oscillator atom and surface, meV nm^3.

    C3 = alpha0 g0 E_a E_S / (8 (E_a + E_S)); this is the exact value of
    the Lifshitz integral for two Lorentzians.
    """
    _require(_finite([alpha0, g0, atom_energy, surface_energy]),
             "inputs must be finite")
    _require(alpha0 > 0 and atom_energy > 0 and surface_energy > 0,
             "alpha0 and energies must be positive")
    _require(0 < g0 < 1, "g0 must lie in (0, 1)")
    c3_ev = (alpha0 * g0 * atom_energy * surface_energy
             / (8.0 * (atom_energy + surface_energy)))
    return 1000.0 * c3_ev
