"""File emission: CSV tables, density-matrix JSON, minimal SVG plots, run manifest.

Numbers are written in their shortest round-trip decimal form, so identical
inputs always produce byte-identical files.  ``write_text`` performs every
file write: it takes ``str`` parts, encoded once, and ``bytes`` parts as they
are, writes each and feeds the same bytes to SHA-256, so each writer returns
the digest of the bytes as written and the manifest lists those digests
without reading any file back.  A density matrix comes as the cells it holds
(ascending row-major indices and their values, +0.0 elsewhere), as a sweep
holds it.  Its JSON is the object {"basis": [[l1, l2], ...], "re": rows,
"im": rows} as ``json.dumps(..., indent=2)`` lays it out, written in bytes:
a cached encoded header and basis block per basis, then per part one cached
encoded template of ``0.0`` cells into which only the held cells whose bits
are not +0.0 are spliced.
SVG output is deliberately simple -- colored rects for heatmaps, polylines
for curves -- and needs no external renderer.  Both heatmaps build their
rects in ``_rects`` from held cells (every cell of a rate surface), with
each distinct value coloured once as a scalar evaluation would colour it: a
rect over the grid in the commonest colour, then one per cell of another
colour, so a density matrix, mostly zeros, takes a few rects.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from functools import lru_cache

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


def write_text(path: str, *parts) -> str:
    """Write the parts (``str`` as UTF-8, ``bytes`` as is); return the file's SHA-256 hex digest."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            data = part if isinstance(part, bytes) else part.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def write_csv(path: str, header: str, temperatures, columns, values: np.ndarray) -> str:
    """Write the table ``values`` (a row per temperature, a column per entry of ``columns``)
    under ``header`` as one ``t,column,value`` line per cell, temperature-major."""
    cols = [f",{float(c)!r}," for c in columns]
    lines = [header]
    for t, row in zip(temperatures, values.tolist()):
        head = repr(float(t))
        lines += [head + c + repr(float(v)) for c, v in zip(cols, row)]
    return write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, pairs, flat, values: np.ndarray) -> str:
    """Write a density matrix over ``pairs`` as ``json.dumps(payload, indent=2)`` and a newline.

    The matrix holds ``values`` at the ascending row-major indices ``flat``
    and +0.0 elsewhere.  The payload is {"basis": [[l1, l2] per pair],
    "re": real parts, "im": imaginary parts}, each part a list of rows in
    basis order, each float as ``json.dumps`` writes it.
    """
    if not pairs:  # json.dumps writes an empty list as []
        return write_text(path, '{\n  "basis": [],\n  "re": [],\n  "im": []\n}\n')
    return write_text(
        path,
        _json_head(tuple(pairs)),
        _float_rows(len(pairs), flat, values.real),
        b'\n  ],\n  "im": [\n    ',
        _float_rows(len(pairs), flat, values.imag),
        b"\n  ]\n}\n",
    )


@lru_cache(maxsize=4)
def _json_head(pairs: tuple) -> bytes:
    """The encoded text of ``write_json`` before its first row: the basis and the "re" key."""
    basis = ",\n    ".join(f"[\n      {l1},\n      {l2}\n    ]" for l1, l2 in pairs)
    return f'{{\n  "basis": [\n    {basis}\n  ],\n  "re": [\n    '.encode()


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


@lru_cache(maxsize=4)
def _zero_rows(n: int) -> bytes:
    """``_float_rows`` of n x n +0.0 cells; cell f = n i + j starts at byte 11 f + 12 i + 8."""
    row = b"[\n      " + b",\n      ".join([b"0.0"] * n) + b"\n    ]"
    return b",\n    ".join([row] * n)


def _float_rows(n: int, flat: np.ndarray, held: np.ndarray) -> bytes:
    """Rows of the n x n matrix of ``held`` at ascending row-major ``flat``, +0.0 elsewhere.

    They are laid out as ``json.dumps`` indents them under a key: the text of
    a matrix of +0.0 (``_zero_rows``) with only the held cells whose bits are
    not +0.0's (so -0.0, NaN, +-inf and subnormals too) spliced in, each
    distinct bit pattern written by one C-encoder call as ``json.dumps`` does.
    """
    bits = np.ascontiguousarray(held, dtype=np.float64).view(np.int64)
    template = _zero_rows(n)
    spliced = bits != 0
    cells = flat[spliced]
    distinct, inverse = _distinct(bits[spliced])
    texts = json.dumps(distinct.view(np.float64).tolist())[1:-1].encode().split(b", ")
    starts = (11 * cells + 12 * (cells // n) + 8).tolist()
    ends = [0, *(start + 3 for start in starts)]
    pieces = []
    for end, start, k in zip(ends, starts, inverse.tolist()):
        pieces += (template[end:start], texts[k])
    pieces.append(template[ends[-1] :])
    return b"".join(pieces)


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


def _colors(scaled):
    """Viridis hex colours of values scaled to [0, 1]: sorted distinct names, an index per value.

    Each value goes through the same float operations in the same order as
    the scalar formula: clip, ``pos = 10 v``, truncated stop index capped at
    9, ``(1 - frac) * stop_i + frac * stop_(i+1)``, and ``rint(255 c)``,
    which rounds half to even like ``round``.  Value ``k`` has colour
    ``names[index[k]]``; the names are sorted, since ``#rrggbb`` sorts as
    the packed RGB value does.
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
    distinct, index = _distinct(packed)
    return ["#%06x" % p for p in distinct.tolist()], index


def _rects(flat, held: np.ndarray, scale, xs, ys, dims: str, frame: str) -> list:
    """Heatmap rects, a line each: a background, then the other cells.

    The grid, a column per ``xs`` and a row per ``ys``, holds ``held`` at the
    ascending row-major indices ``flat`` and 0.0 elsewhere.  The first rect
    lies over it (``frame``: x, y, width, height) in the colour of the most
    cells, the lowest name on a tie; then comes one per cell of another
    colour, in row-major order, as a rect per cell would be (``<rect x=".."
    y=".."``, ``dims``, fill).  An empty grid has no rect.  ``scale`` maps the
    distinct values, held and one 0.0 for the rest, to [0, 1]: each is
    coloured once.
    """
    size = len(xs) * len(ys)
    if size == 0:
        return []
    distinct, inverse = _distinct(np.append(held, 0.0))
    names, index = _colors(scale(distinct))
    colour = index[inverse]
    # each colour's cell count: one per held cell, the rest for the 0.0 last
    counts = np.bincount(colour, weights=np.append(np.ones(len(flat)), size - len(flat)))
    background = int(counts.argmax())
    cells = np.full(size, colour[-1])
    cells[flat] = colour[:-1]
    heads = [f'<rect x="{x}" y="' for x in xs]
    tails = [f'" {dims} fill="{name}"/>\n' for name in names]
    # the foreground cells in row-major order
    foreground = np.flatnonzero(cells != background)
    at_row, at_col = np.divmod(foreground, len(xs))
    fills = cells[foreground].tolist()
    return [f'<rect {frame} fill="{names[background]}"/>\n'] + [
        heads[j] + ys[i] + tails[c] for i, j, c in zip(at_row.tolist(), at_col.tolist(), fills)
    ]


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
) -> str:
    """Heatmap on its commonest colour; rows run bottom-up so the y axis increases upward."""
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
    frame = f'x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}"'

    def scale(distinct):
        return [_scaled(v, vmax, log_scale) for v in distinct.tolist()]

    rects = _rects(np.arange(values.size), values, scale, xs, ys, dims, frame)
    tail = []
    for j in sorted({0, n_cols // 2, n_cols - 1}):
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
    return "".join([line + "\n" for line in parts] + rects + [line + "\n" for line in tail])


def svg_matrix(n: int, flat, magnitudes: np.ndarray, labels, title: str) -> str:
    """Pair-labelled n x n heatmap of ``magnitudes`` at row-major ``flat``, 0.0 elsewhere."""
    cell = max(6.0, min(26.0, 560.0 / max(n, 1)))
    left = top = 90.0
    size = n * cell
    width, height = left + size + 30.0, top + size + 30.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">\n',
        f'<text x="{left + size / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>\n',
    ]
    xs = ys = _coordinates(n, cell, left)  # as left == top
    dims = f'width="{cell:.2f}" height="{cell:.2f}"'
    frame = f'x="{left:.2f}" y="{top:.2f}" width="{size:.2f}" height="{size:.2f}"'

    def scale(distinct):
        vmax = distinct[-1]  # the largest cell, NaN if one is, as the matrix's max
        if not vmax > 0:
            return np.zeros(distinct.shape)
        with np.errstate(over="ignore"):  # to +-inf, as a scalar division does
            return distinct / vmax

    rects = _rects(flat, magnitudes, scale, xs, ys, dims, frame)
    return "".join(parts + rects + [_axis_labels(tuple(labels), cell, left, top)])


@lru_cache(maxsize=4)
def _coordinates(n: int, cell: float, left: float) -> tuple:
    """The texts of ``left + j * cell`` for j < n: ``svg_matrix``'s columns and rows."""
    return tuple(f"{left + j * cell:.2f}" for j in range(n))


@lru_cache(maxsize=4)
def _axis_labels(labels: tuple, cell: float, left: float, top: float) -> str:
    """The pair labels of ``svg_matrix`` along both axes, and the closing tag."""
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
    return "".join(line + "\n" for line in tail)


def svg_lines(x_values, series, title: str, xlabel: str, ylabel: str) -> str:
    """Polyline chart; ``series`` maps a label to a list of y values in [0, 1]."""
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
    return "\n".join(parts) + "\n"
