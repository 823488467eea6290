"""Byte identity of the per-distinct-value writers with the per-cell formulas.

``svg_matrix``, ``svg_heatmap`` and ``write_json`` must write exactly what the
per-cell versions below (verbatim copies of the scalar colour map and the two
heatmap loops) and ``json.dumps(payload, indent=2)`` write.  The inputs cover
the 11 colour stops, the values where ``255 * c`` lands exactly on .5 (where
round-half-even and round-half-up differ), all-zero and 1x1 matrices, log
heatmaps with zeros and values below the six-decade floor, JSON payloads
with -0.0, empty rows and non-finite numbers, and matrices drawn from a few
values so that cells repeat, as in a density matrix.  The SVG writers return
parts that each end in a newline; their join is the document.  ``write_csv``
must end every line, the last one included, with one newline.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sled_oam import outputs

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_VIRIDIS_STOPS = (
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
)


def _color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(_VIRIDIS_STOPS) - 1)
    i = min(int(pos), len(_VIRIDIS_STOPS) - 2)
    frac = pos - i
    rgb = tuple(
        (1 - frac) * _VIRIDIS_STOPS[i][c] + frac * _VIRIDIS_STOPS[i + 1][c] for c in range(3)
    )
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


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
    for i in range(n_rows):
        y = top + (n_rows - 1 - i) * cell_h
        for j in range(n_cols):
            color = _color(_scaled(float(values[i, j]), vmax, log_scale))
            parts.append(
                f'<rect x="{left + j * cell_w:.2f}" y="{y:.2f}" '
                f'width="{cell_w:.2f}" height="{cell_h:.2f}" fill="{color}"/>'
            )
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
    for i in range(n):
        for j in range(n):
            color = _color(float(values[i, j]) / vmax if vmax > 0 else 0.0)
            parts.append(
                f'<rect x="{left + j * cell:.2f}" y="{top + i * cell:.2f}" '
                f'width="{cell:.2f}" height="{cell:.2f}" fill="{color}"/>'
            )
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


def _document(parts: list) -> str:
    """The document a writer's parts make, each of them ending in a newline."""
    assert all(part.endswith("\n") for part in parts)
    return "".join(parts)


def _channels(v: float) -> list:
    """255 * c per channel, as the scalar colour map computes it before rounding."""
    pos = v * 10
    i = min(int(pos), 9)
    frac = pos - i
    return [
        255 * ((1 - frac) * _VIRIDIS_STOPS[i][c] + frac * _VIRIDIS_STOPS[i + 1][c])
        for c in range(3)
    ]


def _half_cases() -> list:
    """Scaled values in [0, 1] at which some channel's 255 * c is exactly k + 0.5."""
    found = set()
    for i in range(10):
        for c in range(3):
            a, b = 255 * _VIRIDIS_STOPS[i][c], 255 * _VIRIDIS_STOPS[i + 1][c]
            lo, hi = sorted((a, b))
            for k in range(math.ceil(lo - 0.5), math.floor(hi - 0.5) + 1):
                v = (i + (k + 0.5 - a) / (b - a)) / 10
                for step in range(-40, 41):
                    w = v + step * 2.0**-56
                    if 0.0 <= w <= 1.0 and _channels(w)[c] % 1 == 0.5:
                        found.add(w)
    return sorted(found)


STOPS = [k / 10 for k in range(11)]
HALF_CASES = _half_cases()

scaled_values = st.one_of(
    st.sampled_from(STOPS),
    st.sampled_from(HALF_CASES),
    st.floats(-0.5, 1.5),
    st.sampled_from([-0.0, math.inf, -math.inf, 5e-324]),
)


def test_half_cases_tell_half_even_from_half_up():
    half_up = [
        "#%02x%02x%02x" % tuple(math.floor(x + 0.5) for x in _channels(v)) for v in HALF_CASES
    ]
    old = [_color(v) for v in HALF_CASES]
    assert sum(a != b for a, b in zip(half_up, old)) > 100
    assert outputs._colors(np.array(HALF_CASES)) == old


def test_every_stop_maps_to_its_scalar_colour():
    assert outputs._colors(np.array(STOPS)) == [_color(v) for v in STOPS]


@SETTINGS
@given(st.lists(scaled_values, max_size=40))
def test_colors_equal_the_scalar_map(values):
    assert outputs._colors(np.array(values, dtype=float)) == [_color(v) for v in values]


def test_nan_is_rejected_like_the_scalar_map():
    with pytest.raises(ValueError):
        _color(math.nan)
    with pytest.raises(ValueError):
        outputs._colors(np.array([0.5, math.nan]))


magnitudes = st.one_of(
    st.sampled_from(STOPS),
    st.sampled_from(HALF_CASES),
    st.floats(0.0, 1e3),
    st.just(0.0),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return np.zeros((n, n))
    return np.array(draw(st.lists(magnitudes, min_size=n * n, max_size=n * n))).reshape(n, n)


@SETTINGS
@given(square_matrices())
@example(np.zeros((1, 1)))
@example(np.zeros((4, 4)))
@example(np.array([[2.5]]))
def test_svg_matrix_is_byte_identical(values):
    labels = [f"({k},{-k})" for k in range(len(values))]
    assert _document(outputs.svg_matrix(values, labels, "|rho|")) == svg_matrix(
        values, labels, "|rho|"
    )


def test_svg_matrix_of_an_empty_matrix():
    empty = np.zeros((0, 0))
    assert _document(outputs.svg_matrix(empty, [], "empty")) == svg_matrix(empty, [], "empty")


@st.composite
def heatmaps(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    vmax = draw(st.sampled_from([1.0, 0.0, -1.0, 3.5e-7, 250.0]))
    scale = vmax if vmax > 0 else 1.0
    cells = st.one_of(
        st.just(0.0),
        st.sampled_from(HALF_CASES).map(lambda v: v * scale),
        st.floats(0.0, 1e-6).map(lambda v: v * scale),
        st.floats(0.0, 1.2).map(lambda v: v * scale),
        st.floats(-1.0, 0.0),
    )
    values = np.array(draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)))
    return values.reshape(rows, cols), vmax, draw(st.booleans())


@SETTINGS
@given(heatmaps())
@example((np.array([[0.0, 1e-7, 1e-6, 0.5], [1.0, 3e-9, 0.0, 2e-6]]), 1.0, True))
def test_svg_heatmap_is_byte_identical(case):
    values, vmax, log_scale = case
    rows, cols = values.shape
    ticks = [f"{j:g}" for j in range(cols)], [f"{i:g}" for i in range(rows)]
    args = (values, *ticks, "t", "x", "y")
    new = _document(outputs.svg_heatmap(*args, vmax=vmax, log_scale=log_scale))
    assert new == svg_heatmap(*args, vmax=vmax, log_scale=log_scale)


def _outcome(write):
    """What a writer returns, or the type of the error it raises (inf / inf is NaN)."""
    try:
        with np.errstate(invalid="ignore"):
            return write()
    except ValueError:
        return ValueError


# the values that tell writers apart: both zeros, NaN, both infinities, the
# smallest subnormal, a colour stop and values where 255 * c lands on .5
POOL_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.5, *HALF_CASES[:8]]


@st.composite
def pooled_matrices(draw, min_side=0):
    """Float matrices up to 40x40 whose cells repeat at most six values."""
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(POOL_VALUES), st.floats(-1e3, 1e3)),
            min_size=1,
            max_size=6,
        )
    )
    rows, cols = draw(st.integers(min_side, 40)), draw(st.integers(min_side, 40))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return [cells[i * cols : (i + 1) * cols] for i in range(rows)]


@SETTINGS
@given(pooled_matrices(min_side=1))
def test_svg_matrix_of_repeated_values_is_byte_identical(rows):
    values = np.array(rows)
    square = values[: min(values.shape), : min(values.shape)]
    labels = [str(k) for k in range(len(square))]
    new = _outcome(lambda: _document(outputs.svg_matrix(square, labels, "m")))
    assert new == _outcome(lambda: svg_matrix(square, labels, "m"))


@SETTINGS
@given(pooled_matrices(min_side=1), st.sampled_from([1.0, 0.0, 250.0, math.inf]), st.booleans())
def test_svg_heatmap_of_repeated_values_is_byte_identical(rows, vmax, log_scale):
    values = np.array(rows)
    ticks = [str(j) for j in range(values.shape[1])], [str(i) for i in range(values.shape[0])]
    args = (values, *ticks, "t", "x", "y")
    new = _outcome(lambda: _document(outputs.svg_heatmap(*args, vmax=vmax, log_scale=log_scale)))
    assert new == _outcome(lambda: svg_heatmap(*args, vmax=vmax, log_scale=log_scale))


def test_a_nan_cell_raises_the_colour_error():
    values = np.array([[0.25, math.nan], [1.0, 0.0]])
    with pytest.raises(ValueError, match="cannot colour NaN"):
        outputs.svg_heatmap(values, ["a", "b"], ["c", "d"], "t", "x", "y", vmax=1.0)
    with pytest.raises(ValueError, match="cannot colour NaN"), np.errstate(invalid="ignore"):
        outputs.svg_matrix(np.array([[math.inf, 0.0], [0.0, 1.0]]), ["a", "b"], "m")


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324]),
    st.integers(-(10**20), 10**20),
)
dm_payloads = st.fixed_dictionaries(
    {
        "basis": st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), max_size=4),
        "re": st.lists(st.lists(numbers, max_size=5), max_size=5),
        "im": st.lists(st.lists(numbers, max_size=5), max_size=5),
    }
)
json_values = st.recursive(
    st.one_of(numbers, st.booleans(), st.none(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


def _written(payload) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "payload.json")
        outputs.write_json(path, payload)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


@SETTINGS
@given(st.one_of(dm_payloads, json_values))
def test_write_json_is_json_dumps_with_indent_2(payload):
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"


@SETTINGS
@given(pooled_matrices(), pooled_matrices())
def test_write_json_of_repeated_floats_is_json_dumps_with_indent_2(re, im):
    payload = {"basis": [[0, 1]], "re": re, "im": im}
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"


def test_write_json_of_a_sparse_density_matrix():
    n = 169
    re = [[0.0] * n for _ in range(n)]
    for i in range(0, n, 13):
        re[i][i] = 1.0 / 13
        for j in range(0, n, 26):
            re[i][j] = re[j][i] = -0.0 if i == j else 0.1 * (1 + (i * j) % 7) / 13
    payload = {
        "basis": [[l1, l2] for l1 in range(-6, 7) for l2 in range(-6, 7)],
        "re": re,
        "im": [[0.0] * n for _ in range(n)],
    }
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        [[0.5, True], [1.0, 2.0]],
        [[0.5, 1], [1.0, 2.0]],
        [[0.5, 1.0], [2.0]],
        [(0.5, 1.0), (2.0, -0.0)],
        [[0.5, 1.0], (2.0, -0.0)],
        [[0.5, np.float64(1.0)], [1.0, 2.0]],
        [[], []],
        [[0.5, None], [1.0, 2.0]],
    ],
)
def test_write_json_of_rows_that_are_no_float_matrix(rows):
    payload = {"re": rows, "nested": [rows]}
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [
        {"basis": [], "re": [[-0.0, math.nan], [], [math.inf, -math.inf]], "im": [[]]},
        {"nan": math.nan, "zero": -0.0, "mixed": [1, [math.inf], {}, "\u00e9"], "empty": {}},
    ],
)
def test_write_json_edge_payloads(payload):
    assert _written(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("rows", [[], [(1.0, -0.0)], [(0.1, 2.5e-300), (math.inf, 3)]])
def test_write_csv_is_one_line_per_row_with_a_final_newline(rows, tmp_path):
    path = str(tmp_path / "table.csv")
    outputs.write_csv(path, "a,b", rows)
    expected = "".join(line + "\n" for line in ["a,b", *(f"{a!r},{float(b)!r}" for a, b in rows)])
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == expected
