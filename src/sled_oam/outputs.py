"""File emission: CSV tables, JSON payloads, minimal SVG plots, run manifest.

Numbers are written in their shortest round-trip decimal form, so identical
inputs always produce byte-identical files.  JSON payloads are laid out
exactly as ``json.dumps(payload, indent=2)`` would, but every list of scalars
goes through the C encoder in one call.  SVG output is deliberately simple --
colored rects for heatmaps, polylines for curves -- and needs no external
renderer.  Both heatmaps (``svg_heatmap`` for rate surfaces, ``svg_matrix``
for density matrices) take their cell colours from one colour map,
``_colors``, which maps a whole row of scaled values at a time with the same
floating-point operations, cell for cell, as a scalar evaluation would.
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


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2)``, byte for byte, and a final newline."""
    write_text(path, _indented_json(payload, "\n") + "\n")


def _indented_json(obj, newline: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value whose line starts with ``newline``.

    The pure-Python encoder that ``indent`` selects is slow on large number
    lists, so a list without a nested list, tuple or dict is one C-encoder
    call whose item separator carries the line break and the indent.
    """
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
        body = ("," + inner).join(
            json.dumps(key) + ": " + _indented_json(value, inner) for key, value in obj.items()
        )
        return "{" + inner + body + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if any(issubclass(kind, (list, tuple, dict)) for kind in set(map(type, obj))):
            body = ("," + inner).join(_indented_json(item, inner) for item in obj)
        else:
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        return "[" + inner + body + newline + "]"
    return json.dumps(obj)


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: str, config_echo: dict, defaults, version: str, duration: float, files
) -> str:
    """Write manifest.json atomically after all other outputs exist."""
    payload = {
        "tool": "sled-oam",
        "version": version,
        "duration_seconds": duration,
        "config": dict(sorted(config_echo.items())),
        "defaults_used": sorted(defaults),
        "outputs": {os.path.basename(p): sha256_of(p) for p in sorted(files)},
    }
    path = os.path.join(out_dir, "manifest.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".manifest.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _colors(scaled) -> list:
    """Viridis hex colours of a row of values scaled to [0, 1].

    Each cell goes through the same float operations in the same order as
    the scalar formula: clip, ``pos = 10 v``, truncated stop index capped at
    9, ``(1 - frac) * stop_i + frac * stop_(i+1)``, and ``rint(255 c)``,
    which rounds half to even like ``round``.  Callers pass one row at a
    time, so no temporary grows with the whole matrix.
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


def _rect_row(xs, y: str, dims: str, scaled) -> str:
    """One heatmap row as its cell rects, one per line, joined while the row is small."""
    return "\n".join(
        f'<rect x="{x}" y="{y}" {dims} fill="{c}"/>' for x, c in zip(xs, _colors(scaled))
    )


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
    """Rect-per-cell heatmap; rows run bottom-up so the y axis increases upward."""
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
    dims = f'width="{cell_w:.2f}" height="{cell_h:.2f}"'
    for i in range(n_rows):
        y = f"{top + (n_rows - 1 - i) * cell_h:.2f}"
        scaled = [_scaled(float(v), vmax, log_scale) for v in values[i]]
        parts.append(_rect_row(xs, y, dims, scaled))
    tick_idx = sorted({0, n_cols // 2, n_cols - 1})
    for j in tick_idx:
        x = left + (j + 0.5) * cell_w
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_ticks[j]}</text>'
        )
    for i in sorted({0, n_rows // 2, n_rows - 1}):
        y = top + (n_rows - 1 - i) * cell_h + cell_h / 2
        parts.append(
            f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_ticks[i]}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{top + plot_h + 40:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_matrix(values: np.ndarray, labels, title: str) -> str:
    """Square magnitude heatmap with pair labels on both axes."""
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
    dims = f'width="{cell:.2f}" height="{cell:.2f}"'
    for i in range(n):
        y = f"{top + i * cell:.2f}"
        parts.append(_rect_row(xs, y, dims, values[i] / vmax if vmax > 0 else np.zeros(n)))
    font = max(6, min(11, int(cell) - 2))
    for j, label in enumerate(labels):
        x = left + (j + 0.5) * cell
        parts.append(
            f'<text x="{x:.1f}" y="{top - 6:.1f}" text-anchor="start" '
            f'font-family="sans-serif" font-size="{font}" '
            f'transform="rotate(-60 {x:.1f} {top - 6:.1f})">{label}</text>'
        )
    for i, label in enumerate(labels):
        y = top + (i + 0.5) * cell
        parts.append(
            f'<text x="{left - 6:.1f}" y="{y + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="{font}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
