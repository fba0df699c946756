"""Atom-beam diffraction from a nanostructured transmission grating with
an attractive -C3/l^3 wall potential.

Three layers:

    grating    eikonal diffraction model and oscillatory quadrature
    inference  one-period peak areas of a scan, one-parameter C3 fit
    lifshitz   Tauc-Lorentz / Kramers-Kronig prediction of C3

plus config (run files), dataio (CSV and report formats) and a CLI
(`vdwgrating simulate|synth|fit|theory`).
"""

__version__ = "0.1.0"

from .errors import (
    BoundarySolutionError,
    ConfigError,
    DataFormatError,
    EvanescentOrderError,
    FitFailureError,
    InvalidInputError,
    MissingPeakError,
    MultimodalObjectiveError,
    QuadratureError,
    ToolkitError,
)
from .grating import (
    AngularScan,
    BeamState,
    GratingGeometry,
    OrderIntensities,
    Potential,
    angular_pattern,
    de_broglie_wavelength,
    diffraction_angle,
    grating_factor,
    intensities_for_orders,
    order_intensities,
    slit_amplitude,
    transmission_factor,
    velocity_averaged_intensities,
    wall_phase,
)
from .inference import (
    C3FitResult,
    fit_c3,
    scan_order_intensities,
    synthesize_orders,
    synthesize_scan,
)
from .lifshitz import (
    C3Result,
    CachedDielectric,
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

__all__ = [
    "__version__",
    # errors
    "BoundarySolutionError", "ConfigError", "DataFormatError",
    "EvanescentOrderError", "FitFailureError", "InvalidInputError",
    "MissingPeakError", "MultimodalObjectiveError", "QuadratureError",
    "ToolkitError",
    # grating
    "AngularScan", "BeamState", "GratingGeometry", "OrderIntensities",
    "Potential", "angular_pattern", "de_broglie_wavelength",
    "diffraction_angle", "grating_factor", "intensities_for_orders",
    "order_intensities", "slit_amplitude", "transmission_factor",
    "velocity_averaged_intensities", "wall_phase",
    # inference
    "C3FitResult", "fit_c3", "scan_order_intensities", "synthesize_orders",
    "synthesize_scan",
    # lifshitz
    "C3Result", "CachedDielectric", "LorentzSurface", "OneOscillatorAtom",
    "TabulatedPolarizability", "TaucLorentzParams", "c3_lifshitz",
    "c3_one_oscillator", "eps_imaginary_axis", "g_from_eps",
    "one_oscillator_alpha", "oscillator_energy_from_c6",
    "static_response_g0", "tauc_lorentz_eps2",
]
