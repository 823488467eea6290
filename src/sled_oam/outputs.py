"""File emission: CSV tables, density-matrix JSON, minimal SVG plots, run manifest.

Numbers are written in their shortest round-trip decimal form, so identical
inputs always produce byte-identical files.  ``write_text`` performs every
file write: it encodes each part once, writes it and feeds the same bytes to
SHA-256, so each writer returns the digest of the bytes as written and the
manifest lists those digests without reading any file back.  A density
matrix's JSON is laid out exactly as ``json.dumps(payload, indent=2)`` lays
out ``PairDensityMatrix.to_json_dict``, but is built from the basis pairs and
the complex array, formatting each distinct bit pattern of ``re`` and ``im``
once.  SVG output is deliberately simple -- colored rects for heatmaps,
polylines for curves -- and needs no external renderer.  Both heatmaps
(``svg_heatmap`` for rate surfaces, ``svg_matrix`` for density matrices)
build their rows in ``_rect_rows``, which scales and colours each distinct
cell value once, with the same floating-point operations as a scalar
evaluation would, and lays each row out from pieces built once per heatmap.
The SVG writers return their document as a list of parts, each ending in its
newline, which ``write_text`` writes one after another: the document is
never joined in memory, and every part exists before the file is opened.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

_VIRIDIS_STOPS = np.array([
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
])


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def write_text(path: str, *parts: str) -> str:
    """Write the parts one after another; return the SHA-256 hex digest of the file."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            data = part.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def write_csv(path: str, header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    lines.append("")
    return write_text(path, "\n".join(lines))


def write_json(path: str, pairs, entries: np.ndarray) -> str:
    """Write a density matrix over ``pairs`` as ``json.dumps(payload, indent=2)`` and a newline.

    The payload is ``{"basis": pairs, "re": entries.real, "im": entries.imag}``
    as lists, the form of ``PairDensityMatrix.to_json_dict``.
    """
    basis = ",\n    ".join(f"[\n      {l1},\n      {l2}\n    ]" for l1, l2 in pairs)
    return write_text(
        path,
        '{\n  "basis": [\n    ',
        basis,
        '\n  ],\n  "re": [\n    ',
        _float_rows(entries.real),
        '\n  ],\n  "im": [\n    ',
        _float_rows(entries.imag),
        "\n  ]\n}\n",
    )


def _distinct(values: np.ndarray):
    """The sorted distinct values and, in the shape of ``values``, each one's index.

    ``np.unique(values, return_inverse=True)`` up to NaN (each NaN stays
    apart in the distinct values, and every NaN cell points to the first),
    but a sort and a binary search instead of an indirect sort.
    """
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def _float_rows(matrix: np.ndarray) -> str:
    """A float matrix's rows as ``json.dumps`` indents them under a key; each value formatted once.

    The distinct bit patterns (so -0.0 stays apart from 0.0) go through one
    C-encoder call, which writes each exactly as ``json.dumps`` does, NaN and
    Infinity included; every row is then one join of the formatted cells.
    """
    bits = np.ascontiguousarray(matrix, dtype=np.float64).view(np.int64)
    distinct, inverse = _distinct(bits)
    texts = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    cells = np.array(texts, dtype=object)[inverse].tolist()
    return ",\n    ".join("[\n      " + ",\n      ".join(row) + "\n    ]" for row in cells)


def write_manifest(
    out_dir: str, config_echo: dict, defaults, version: str, duration: float, files: dict
) -> str:
    """Write manifest.json atomically after all other outputs exist.

    ``files`` maps each output's file name to the digest its writer returned.
    """
    payload = {
        "tool": "sled-oam",
        "version": version,
        "duration_seconds": duration,
        "config": dict(sorted(config_echo.items())),
        "defaults_used": sorted(defaults),
        "outputs": files,
    }
    path = os.path.join(out_dir, "manifest.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".manifest.tmp")
    os.close(fd)
    try:
        write_text(tmp, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _colors(scaled) -> list:
    """Viridis hex colours of values scaled to [0, 1].

    Each value goes through the same float operations in the same order as
    the scalar formula: clip, ``pos = 10 v``, truncated stop index capped at
    9, ``(1 - frac) * stop_i + frac * stop_(i+1)``, and ``rint(255 c)``,
    which rounds half to even like ``round``.
    """
    v = np.clip(np.asarray(scaled, dtype=float), 0.0, 1.0)
    if np.isnan(v).any():
        raise ValueError("cannot colour NaN")
    pos = v * (len(_VIRIDIS_STOPS) - 1)
    i = np.minimum(pos.astype(np.intp), len(_VIRIDIS_STOPS) - 2)
    frac = (pos - i)[:, None]
    lo, hi = _VIRIDIS_STOPS[i], _VIRIDIS_STOPS[i + 1]
    rgb = np.rint(255 * ((1 - frac) * lo + frac * hi)).astype(np.int64)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    distinct, index = np.unique(packed, return_inverse=True)
    names = ["#%06x" % p for p in distinct.tolist()]
    return [names[k] for k in index.tolist()]


def _rect_rows(values: np.ndarray, scale, xs, ys, dims: str) -> list:
    """Heatmap rows as parts, one rect per line, each line ending in a newline.

    A cell's colour depends only on its value, so ``scale`` maps the distinct
    values of the whole matrix to [0, 1] and each is coloured once; every
    cell then reads its rect's tail through the inverse index.  A row is the
    per-column heads ``<rect x=".." y="`` with the row's y and the cells'
    tails filled in, joined once.
    """
    distinct, inverse = _distinct(values)
    tails = np.array(
        [f'" {dims} fill="{color}"/>\n' for color in _colors(scale(distinct))], dtype=object
    )
    row = [piece for x in xs for piece in (f'<rect x="{x}" y="', "", "")]
    rows = []
    for y, cells in zip(ys, tails[inverse].tolist()):
        row[1::3] = [y] * len(cells)
        row[2::3] = cells
        rows.append("".join(row))
    return rows


def _scaled(value: float, vmax: float, log_scale: bool, decades: float = 6.0) -> float:
    if vmax <= 0:
        return 0.0
    if not log_scale:
        return value / vmax
    if value <= 0:
        return 0.0
    return max(0.0, 1.0 + math.log10(value / vmax) / decades)


def svg_heatmap(
    values: np.ndarray,
    x_ticks,
    y_ticks,
    title: str,
    xlabel: str,
    ylabel: str,
    vmax: float,
    log_scale: bool = False,
) -> list:
    """Rect-per-cell heatmap as parts; rows run bottom-up so the y axis increases upward."""
    n_rows, n_cols = values.shape
    cell_w = max(2.0, min(14.0, 720.0 / n_cols))
    cell_h = max(2.0, min(24.0, 420.0 / n_rows))
    left, top = 70.0, 40.0
    plot_w, plot_h = n_cols * cell_w, n_rows * cell_h
    width, height = left + plot_w + 30.0, top + plot_h + 60.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        f'<text x="{left + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    xs = [f"{left + j * cell_w:.2f}" for j in range(n_cols)]
    ys = [f"{top + (n_rows - 1 - i) * cell_h:.2f}" for i in range(n_rows)]
    dims = f'width="{cell_w:.2f}" height="{cell_h:.2f}"'

    def scale(distinct):
        return [_scaled(v, vmax, log_scale) for v in distinct.tolist()]

    rows = _rect_rows(values, scale, xs, ys, dims)
    tail = []
    tick_idx = sorted({0, n_cols // 2, n_cols - 1})
    for j in tick_idx:
        x = left + (j + 0.5) * cell_w
        tail.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_ticks[j]}</text>'
        )
    for i in sorted({0, n_rows // 2, n_rows - 1}):
        y = top + (n_rows - 1 - i) * cell_h + cell_h / 2
        tail.append(
            f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_ticks[i]}</text>'
        )
    tail.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{top + plot_h + 40:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    tail.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )
    tail.append("</svg>")
    return [line + "\n" for line in parts] + rows + [line + "\n" for line in tail]


def svg_matrix(values: np.ndarray, labels, title: str) -> list:
    """Square magnitude heatmap as parts, with pair labels on both axes."""
    n = values.shape[0]
    vmax = float(values.max()) if values.size else 1.0
    cell = max(6.0, min(26.0, 560.0 / max(n, 1)))
    left, top = 90.0, 90.0
    size = n * cell
    width, height = left + size + 30.0, top + size + 30.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        f'<text x="{left + size / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    xs = [f"{left + j * cell:.2f}" for j in range(n)]
    ys = [f"{top + i * cell:.2f}" for i in range(n)]
    dims = f'width="{cell:.2f}" height="{cell:.2f}"'

    def scale(distinct):
        return distinct / vmax if vmax > 0 else np.zeros(distinct.shape)

    rows = _rect_rows(values, scale, xs, ys, dims)
    tail = []
    font = max(6, min(11, int(cell) - 2))
    for j, label in enumerate(labels):
        x = left + (j + 0.5) * cell
        tail.append(
            f'<text x="{x:.1f}" y="{top - 6:.1f}" text-anchor="start" '
            f'font-family="sans-serif" font-size="{font}" '
            f'transform="rotate(-60 {x:.1f} {top - 6:.1f})">{label}</text>'
        )
    for i, label in enumerate(labels):
        y = top + (i + 0.5) * cell
        tail.append(
            f'<text x="{left - 6:.1f}" y="{y + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="{font}">{label}</text>'
        )
    tail.append("</svg>")
    return [line + "\n" for line in parts] + rows + [line + "\n" for line in tail]


def svg_lines(x_values, series, title: str, xlabel: str, ylabel: str) -> list:
    """Polyline chart as parts; ``series`` maps a label to a list of y values in [0, 1]."""
    left, top, plot_w, plot_h = 70.0, 40.0, 560.0, 360.0
    width, height = left + plot_w + 160.0, top + plot_h + 70.0
    x_lo, x_hi = min(x_values), max(x_values)
    span = (x_hi - x_lo) or 1.0

    def px(x):
        return left + (x - x_lo) / span * plot_w

    def py(y):
        return top + (1.0 - min(max(y, 0.0), 1.0)) * plot_h

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        f'<text x="{left + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{left - 6:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{frac}</text>'
        )
    for x in (x_lo, 0.5 * (x_lo + x_hi), x_hi):
        parts.append(
            f'<text x="{px(x):.1f}" y="{top + plot_h + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x:g}</text>'
        )
    for idx, (label, ys) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(x_values, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = top + 16 + 18 * idx
        parts.append(
            f'<line x1="{left + plot_w + 14}" y1="{ly - 4:.1f}" '
            f'x2="{left + plot_w + 40}" y2="{ly - 4:.1f}" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{left + plot_w + 46}" y="{ly:.1f}" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{top + plot_h + 44:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return [line + "\n" for line in parts]
