"""File formats: order CSV, scan CSV, eps(iE) CSV, alpha(iE) tables, reports.

Every format shares one grammar.  Lines are stripped and blank lines
skipped; `#` starts a comment line.  A CSV has one header line naming
its columns, then one comma-separated row per sample; a `# key = value`
comment carries metadata (a scan's n_slits, a synthetic scan's seed).
Numbers are written with repr, the shortest string that reads back to
the same float64, so a write/read cycle is lossless; a cell that does
not read as a finite number is a DataFormatError naming its line.
Alpha tables are whitespace-separated `energy alpha` rows, and reports
are `key = value` lines.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DataFormatError
from .grating import AngularScan, OrderIntensities
from .lifshitz import TabulatedPolarizability

__all__ = [
    "NormalizationWarning",
    "load_orders_csv",
    "load_polarizability_table",
    "load_scan_csv",
    "read_report",
    "save_eps_csv",
    "save_orders_csv",
    "save_scan_csv",
    "write_report",
]

_ORDERS_HEADER = ("n", "intensity", "sigma")
_SCAN_HEADER = ("theta_rad", "counts")
_EPS_HEADER = ("energy_ev", "eps_iw")


class NormalizationWarning(UserWarning):
    """Loaded intensities did not sum to one and were renormalized."""


def _lines(path):
    """Yield (line number, stripped line) for each nonblank line of path."""
    with open(path, "r", encoding="utf-8") as fh:
        body = fh.read()
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _number(cell, lineno):
    """cell as a finite float, or a DataFormatError naming lineno."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataFormatError(f"not a finite number: {cell!r}", line=lineno)
    return value


def _read_csv(path, headers):
    """Read a CSV whose header is one of `headers` (tuples of names).

    Returns (header, rows, meta): the header found, a nonempty list of
    (line number, cells) with one cell per column, and the `# key =
    value` comments as {key: (line number, value)}.
    """
    header, rows, meta = None, [], {}
    lineno = None
    for lineno, line in _lines(path):
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = (lineno, value.strip())
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = tuple(c.lower() for c in cells)
            if header not in headers:
                raise DataFormatError(
                    "header must be "
                    + " or ".join(repr(",".join(h)) for h in headers),
                    line=lineno)
        elif len(cells) != len(header):
            raise DataFormatError(
                f"expected {len(header)} columns, got {len(cells)}",
                line=lineno)
        else:
            rows.append((lineno, cells))
    if header is None:
        raise DataFormatError("no header line found", line=lineno)
    if not rows:
        raise DataFormatError("no data rows", line=lineno)
    return header, rows, meta


def _write(path, lines):
    """Write lines to path, each ended by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "")


def _write_csv(path, header, columns, meta=()):
    """Write `# key = value` comments, the header, then repr'd rows."""
    cells = [list(map(repr, np.asarray(c).tolist())) for c in columns]
    rows = [f"# {k} = {v}" for k, v in meta]
    rows.append(",".join(header))
    _write(path, rows + list(map(",".join, zip(*cells))))


def save_orders_csv(path, intensities):
    """Write OrderIntensities as `n,intensity[,sigma]` CSV."""
    columns = [intensities.orders, intensities.intensity]
    if intensities.sigma is not None:
        columns.append(intensities.sigma)
    _write_csv(path, _ORDERS_HEADER[:len(columns)], columns)


def load_orders_csv(path):
    """Read `n,intensity[,sigma]` CSV into OrderIntensities.

    Intensities whose sum differs from one by more than 1e-9 raise a
    NormalizationWarning and are renormalized (sigma rescaled along).
    """
    header, rows, _ = _read_csv(path, (_ORDERS_HEADER[:2], _ORDERS_HEADER))
    data = {}
    for lineno, cells in rows:
        try:
            n = int(cells[0])
        except ValueError:
            raise DataFormatError(f"order is not an integer: {cells[0]!r}",
                                  line=lineno) from None
        if n in data:
            raise DataFormatError(f"duplicate order {n}", line=lineno)
        data[n] = [_number(c, lineno) for c in cells[1:]]
        for name, v in zip(header[1:], data[n]):
            if v < 0:
                raise DataFormatError(f"negative {name} {v!r}", line=lineno)
    orders = sorted(data)
    values = np.array([data[n][0] for n in orders])
    sig = (np.array([data[n][1] for n in orders]) if len(header) == 3
           else None)
    with np.errstate(over="ignore"):
        total = float(values.sum())
    if not 0 < total < math.inf:
        raise DataFormatError(f"intensities sum to {total!r}")
    if abs(total - 1.0) > 1e-9:
        warnings.warn(
            f"intensities sum to {total!r}; renormalizing",
            NormalizationWarning, stacklevel=2)
    return OrderIntensities.from_raw(tuple(orders), values, sig)


def save_scan_csv(path, scan, metadata=None):
    """Write an AngularScan as `theta_rad,counts` CSV.

    n_slits travels in a `# n_slits = N` comment; extra metadata pairs
    are written the same way, insertion order preserved.
    """
    meta = {"n_slits": scan.n_slits}
    if metadata:
        meta.update(metadata)
    _write_csv(path, _SCAN_HEADER, (scan.angles, scan.values), meta.items())


def load_scan_csv(path):
    """Read a `theta_rad,counts` CSV into (AngularScan, metadata dict).

    `# key = value` comments become metadata; n_slits defaults to 1
    when absent.
    """
    _, rows, meta = _read_csv(path, (_SCAN_HEADER,))
    angles, values = [], []
    for lineno, cells in rows:
        theta, counts = (_number(c, lineno) for c in cells)
        if angles and theta <= angles[-1]:
            raise DataFormatError(
                f"angles must be strictly increasing ({theta!r} after "
                f"{angles[-1]!r})", line=lineno)
        if counts < 0:
            raise DataFormatError(f"negative count {counts!r}", line=lineno)
        angles.append(theta)
        values.append(counts)
    if len(angles) < 2:
        raise DataFormatError("need at least two scan samples",
                              line=rows[-1][0])
    slits_line, slits = meta.get("n_slits", (None, "1"))
    try:
        n_slits = int(slits)
    except ValueError:
        n_slits = 0
    if n_slits < 1:
        raise DataFormatError(
            f"n_slits comment is not a positive integer: {slits!r}",
            line=slits_line)
    scan = AngularScan(np.asarray(angles), np.asarray(values), n_slits)
    return scan, {k: v for k, (_, v) in meta.items()}


def save_eps_csv(path, energies, eps):
    """Write an eps(iE) grid as `energy_ev,eps_iw` CSV."""
    _write_csv(path, _EPS_HEADER, (np.asarray(energies, dtype=float),
                                   np.asarray(eps, dtype=float)))


def load_polarizability_table(path):
    """Read a two-column alpha(iE) table.

    Format: whitespace-separated `energy_ev  alpha_nm3` rows, `#`
    comments (whole-line or trailing) ignored.  Energies must increase
    strictly from 0; alpha must be nonnegative and non-increasing.
    """
    energies, alphas = [], []
    lineno = None
    for lineno, line in _lines(path):
        cells = line.split("#", 1)[0].split()
        if not cells:
            continue
        if len(cells) != 2:
            raise DataFormatError(
                f"expected 2 whitespace-separated columns, got {len(cells)}",
                line=lineno)
        e, a = (_number(c, lineno) for c in cells)
        if not energies and e != 0.0:
            raise DataFormatError(
                f"first energy must be 0 (static limit), got {e!r}",
                line=lineno)
        if energies and e <= energies[-1]:
            raise DataFormatError(
                f"energies must increase strictly ({e!r} after "
                f"{energies[-1]!r})", line=lineno)
        if a < 0:
            raise DataFormatError(f"negative alpha {a!r}", line=lineno)
        if alphas and a > alphas[-1]:
            raise DataFormatError(
                f"alpha must be non-increasing in energy ({a!r} after "
                f"{alphas[-1]!r})", line=lineno)
        energies.append(e)
        alphas.append(a)
    if len(energies) < 2:
        raise DataFormatError("need at least two table rows", line=lineno)
    return TabulatedPolarizability(np.asarray(energies), np.asarray(alphas))


def write_report(path, items):
    """Write `key = value` report lines, insertion order preserved."""
    _write(path, [f"{k} = {v}" for k, v in items])


def read_report(path):
    """Read a report written by write_report back into an ordered dict."""
    out = {}
    for lineno, line in _lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError("expected 'key = value'", line=lineno)
        k, _, v = line.partition("=")
        out[k.strip()] = v.strip()
    return out
