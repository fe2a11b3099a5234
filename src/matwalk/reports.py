"""Deterministic artifact emission: CSV, plain-text summaries, static SVG.

Every byte written is a pure function of the report contents: floats are
formatted with 17 significant digits, line endings are LF, and no timestamps
or environment details are recorded.  SVG plots are emitted directly as
path/rect elements in a fixed 800x600 viewport; no plotting library.
"""

import csv

import numpy as np


def fmt(value):
    """Canonical value formatting used in all artifacts."""
    if isinstance(value, float):  # np.float64 too
        return f"{value:.17g}"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return f"{float(value):.17g}"


def write_csv(path, header, rows):
    # apart from _write_table: the bench tracer wraps both write_csv and to_csv
    _write_table(path, header, rows)


def _write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_summary(path, lines):
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


_W, _H = 800, 600
_MARGIN = 60


def _x_pix(t, lo, hi):
    span = hi - lo if hi > lo else 1.0
    return _MARGIN + (_W - 2 * _MARGIN) * (t - lo) / span


def _cdf_line(ts, vs, lo, hi, stroke, width):
    """Polyline through ``(t, v)``: ``t`` on the data axis, ``v`` on the right axis [0, 1]."""
    pts = " ".join(f"{fmt(_x_pix(t, lo, hi))},{fmt(_H - _MARGIN - (_H - 2 * _MARGIN) * v)}"
                   for t, v in zip(ts, vs))
    return f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'


def svg_histogram(path, samples, cdf=None, bins=40, title=""):
    """Histogram bars with an optional reference-CDF polyline overlay.

    Bars are scaled to the modal bin; the CDF uses the right axis [0, 1].
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    lo, hi = float(samples[0]), float(samples[-1])
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    peak = max(int(counts.max()), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    base = _H - _MARGIN
    for c, e0, e1 in zip(counts, edges[:-1], edges[1:]):
        if c == 0:
            continue
        x0 = _x_pix(e0, lo, hi)
        x1 = _x_pix(e1, lo, hi)
        h = (_H - 2 * _MARGIN) * c / peak
        parts.append(
            f'<rect x="{fmt(x0)}" y="{fmt(base - h)}" width="{fmt(x1 - x0)}" '
            f'height="{fmt(h)}" fill="#9ecae1" stroke="#3182bd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{base}" x2="{_W - _MARGIN}" y2="{base}" '
        f'stroke="black" stroke-width="1"/>'
    )
    if cdf is not None:
        grid = np.linspace(lo, hi, 200)
        parts.append(_cdf_line(grid, np.asarray(cdf(grid), dtype=float), lo, hi, "#de2d26", 1.5))
    # empirical CDF steps for comparison against the reference line
    ec = np.arange(1, samples.size + 1) / samples.size
    stride = max(1, samples.size // 400)
    parts.append(_cdf_line(samples[::stride], ec[::stride], lo, hi, "#31a354", 1))
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
