"""The writers against the per-cell formulas: painted colours of the heatmaps, JSON bytes.

The per-cell versions below (verbatim copies of the scalar colour map and of
the two heatmap loops, which write one rect per cell) are the oracle.
``svg_matrix`` and ``svg_heatmap`` must paint every cell in the oracle's
colour, where a cell shows the fill of the last rect that contains its
centre, and every line that is not a rect must be the oracle's, byte for
byte.  Their first rect is the background: it covers every cell, in the
colour of the most cells (the lowest colour name on a tie), and each cell of
another colour keeps the oracle's rect line, in the oracle's order, so a
document has one rect more than it has cells of another colour.
``write_json`` must write exactly what ``json.dumps(to_json_dict(rho),
indent=2)`` writes.  ``write_json`` and ``svg_matrix`` take a matrix as the
cells it holds (ascending row-major indices and their values, +0.0
elsewhere): each is given every cell whose bits are not +0.0's and none,
some or all of the +0.0 cells, and the oracle the dense matrix.  The inputs
cover the 11 colour stops, the values where
``255 * c`` lands exactly on .5 (where round-half-even and round-half-up
differ), all-zero and 1x1 matrices, a tie for the background, log heatmaps
with zeros and values below the six-decade floor, density matrices with
-0.0, the smallest subnormal, a single pair, no pair and non-finite cells,
matrices of +0.0 with a few other cells, often at the ends of a row (what
``write_json`` splices into its template), and matrices drawn from a few
values so that cells repeat, as in a density matrix; held cells of +0.0
and -0.0, no held cell, and every cell held and nonzero (so that the colour
of 0.0 is not the background); where the oracle
raises, the writers must raise too.  The SVG
writers return their document as one string that ends in a newline.
``write_csv`` must write one ``t,column,value`` line per cell of its table,
temperature-major, each number as ``repr(float(x))``, and end every line, the
last one included, with one newline; ``write_text`` returns the SHA-256 of
the bytes it wrote, and ``write_manifest`` leaves no file when its final
rename fails.
"""

import hashlib
import json
import math
import os
import re
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sled_oam import outputs
from sled_oam.pair_state import OamPairBasis, PairDensityMatrix

from dm_json import to_json_dict

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


def _document(document: str) -> str:
    """A writer's document: one string that ends in a newline."""
    assert isinstance(document, str) and document.endswith("\n")
    return document


_RECT = re.compile(
    r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" fill="([^"]+)"/>'
)


def rect_lines(document: str) -> list:
    return [line for line in document.splitlines() if line.startswith("<rect ")]


def rects(document: str) -> list:
    """Every rect of a heatmap document as ``(x, y, width, height, fill)``, in document order."""
    found = []
    for line in rect_lines(document):
        x, y, width, height, fill = _RECT.fullmatch(line).groups()
        found.append((float(x), float(y), float(width), float(height), fill))
    return found


def painted(document: str, cells) -> list:
    """The colour each cell ``(x, y, width, height, ...)`` shows: the fill of the last rect
    of ``document`` that contains the cell's centre, or None where no rect does."""
    cx = np.array([x + w / 2 for x, _, w, *_ in cells])
    cy = np.array([y + h / 2 for _, y, _, h, *_ in cells])
    shown = np.full(len(cells), None, dtype=object)
    for x, y, w, h, fill in rects(document):
        shown[(x <= cx) & (cx <= x + w) & (y <= cy) & (cy <= y + h)] = fill
    return shown.tolist()


def assert_paints_like(document: str, oracle: str) -> None:
    """``document`` paints every cell of the per-cell ``oracle`` as the oracle does, on a
    background of the commonest colour, and all its other lines are the oracle's."""
    cells = rects(oracle)
    fills = [cell[4] for cell in cells]
    assert painted(document, cells) == fills
    other = [line for line in document.splitlines() if not line.startswith("<rect ")]
    assert other == [line for line in oracle.splitlines() if not line.startswith("<rect ")]
    lines = rect_lines(document)
    if not cells:
        assert lines == []
        return
    counts = Counter(fills)
    background = min(counts, key=lambda fill: (-counts[fill], fill))
    assert painted(lines[0], cells) == [background] * len(cells)
    assert len(lines) == 1 + sum(fill != background for fill in fills)
    others = [line for line, fill in zip(rect_lines(oracle), fills) if fill != background]
    assert lines[1:] == others


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
    assert _cell_colors(HALF_CASES) == old


def _cell_colors(values) -> list:
    """Each value's colour as ``outputs._colors`` gives it: sorted distinct names, an index each."""
    names, index = outputs._colors(np.array(values, dtype=float))
    assert names == sorted(set(names))
    return [names[k] for k in index.tolist()]


def test_every_stop_maps_to_its_scalar_colour():
    assert _cell_colors(STOPS) == [_color(v) for v in STOPS]


@SETTINGS
@given(st.lists(scaled_values, max_size=40))
def test_colors_equal_the_scalar_map(values):
    assert _cell_colors(values) == [_color(v) for v in values]


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


def support(values, extra=False) -> np.ndarray:
    """The ascending row-major indices of the cells of ``values`` whose bits are not +0.0's
    and of the +0.0 cells where ``extra`` (a mask, or one bool for all cells) is set."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    return np.flatnonzero((bits != 0) | extra)


@st.composite
def supports(draw, values):
    """``support`` of ``values`` and none, about half or all of its +0.0 cells."""
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return support(values, rng.random(np.shape(values)) < share)


def held(values, flat) -> tuple:
    """``svg_matrix``'s first arguments for the square ``values`` holding the cells ``flat``."""
    return len(values), flat, np.ravel(values)[flat]


@st.composite
def square_matrices(draw):
    """A square matrix of magnitudes and the cells it holds."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        values = np.zeros((n, n))
    else:
        values = np.array(draw(st.lists(magnitudes, min_size=n * n, max_size=n * n)))
    values = values.reshape(n, n)
    return values, draw(supports(values))


# distinct values whose colours all have names above that of 0.0, #440154: a
# writer that counted one cell of 0.0 here would paint the background #440154
NONZERO = np.array([[0.85, 0.9], [0.95, 1.0]])


@SETTINGS
@given(square_matrices())
@example((np.zeros((1, 1)), np.arange(1)))
@example((np.zeros((4, 4)), np.arange(0)))  # no held cell
@example((np.zeros((4, 4)), np.arange(16)))
@example((np.array([[2.5]]), np.arange(1)))
@example((np.array([[0.0, 1.0], [1.0, 0.0]]), np.arange(4)))  # a tie: #440154 is the background
@example((np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, 2])))
@example((np.array([[-0.0, 0.0], [1.0, 0.0]]), np.array([0, 1, 2])))  # held -0.0 and +0.0
@example((NONZERO, np.arange(4)))  # every cell held and nonzero
def test_svg_matrix_paints_like_the_per_cell_writer(case):
    values, flat = case
    labels = [f"({k},{-k})" for k in range(len(values))]
    document = _document(outputs.svg_matrix(*held(values, flat), labels, "|rho|"))
    assert_paints_like(document, svg_matrix(values, labels, "|rho|"))


def test_every_cell_held_and_nonzero_leaves_zero_out_of_the_background():
    oracle = svg_matrix(NONZERO, ["a", "b"], "m")
    document = outputs.svg_matrix(*held(NONZERO, np.arange(4)), ["a", "b"], "m")
    assert "#440154" not in oracle + document
    assert_paints_like(document, oracle)


def test_svg_matrix_of_an_empty_matrix():
    empty = np.zeros((0, 0))
    document = outputs.svg_matrix(*held(empty, np.arange(0)), [], "empty")
    assert _document(document) == svg_matrix(empty, [], "empty")


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
def test_svg_heatmap_paints_like_the_per_cell_writer(case):
    values, vmax, log_scale = case
    rows, cols = values.shape
    ticks = [f"{j:g}" for j in range(cols)], [f"{i:g}" for i in range(rows)]
    args = (values, *ticks, "t", "x", "y")
    new = _document(outputs.svg_heatmap(*args, vmax=vmax, log_scale=log_scale))
    assert_paints_like(new, svg_heatmap(*args, vmax=vmax, log_scale=log_scale))


def _outcome(write):
    """What a writer returns, or the type of the error it raises (inf / inf is NaN)."""
    try:
        with np.errstate(invalid="ignore"):
            return write()
    except ValueError:
        return ValueError


def assert_same_outcome(new, oracle) -> None:
    """Both writers raise, or the new document paints like the oracle's."""
    assert (new is ValueError) == (oracle is ValueError)
    if oracle is not ValueError:
        assert_paints_like(new, oracle)


# the values that tell writers apart: both zeros, NaN, both infinities, the
# smallest subnormal, a colour stop and values where 255 * c lands on .5
POOL_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.5, *HALF_CASES[:8]]


@st.composite
def pooled_matrices(draw):
    """Float matrices up to 40x40 whose cells repeat at most six values."""
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(POOL_VALUES), st.floats(-1e3, 1e3)),
            min_size=1,
            max_size=6,
        )
    )
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return [cells[i * cols : (i + 1) * cols] for i in range(rows)]


@SETTINGS
@given(pooled_matrices(), st.data())
def test_svg_matrix_of_repeated_values_paints_like_the_per_cell_writer(rows, data):
    values = np.array(rows)
    square = values[: min(values.shape), : min(values.shape)]
    cells = held(square, data.draw(supports(square)))
    labels = [str(k) for k in range(len(square))]
    new = _outcome(lambda: _document(outputs.svg_matrix(*cells, labels, "m")))
    assert_same_outcome(new, _outcome(lambda: svg_matrix(square, labels, "m")))


@SETTINGS
@given(pooled_matrices(), st.sampled_from([1.0, 0.0, 250.0, math.inf]), st.booleans())
def test_svg_heatmap_of_repeated_values_paints_like_the_per_cell_writer(rows, vmax, log_scale):
    values = np.array(rows)
    ticks = [str(j) for j in range(values.shape[1])], [str(i) for i in range(values.shape[0])]
    args = (values, *ticks, "t", "x", "y")
    new = _outcome(lambda: _document(outputs.svg_heatmap(*args, vmax=vmax, log_scale=log_scale)))
    assert_same_outcome(new, _outcome(lambda: svg_heatmap(*args, vmax=vmax, log_scale=log_scale)))


def test_a_nan_cell_raises_the_colour_error():
    values = np.array([[0.25, math.nan], [1.0, 0.0]])
    with pytest.raises(ValueError, match="cannot colour NaN"):
        outputs.svg_heatmap(values, ["a", "b"], ["c", "d"], "t", "x", "y", vmax=1.0)
    with pytest.raises(ValueError, match="cannot colour NaN"), np.errstate(invalid="ignore"):
        outputs.svg_matrix(2, np.array([0, 3]), np.array([math.inf, 1.0]), ["a", "b"], "m")


# finite cell values that tell float formatters apart, and the non-finite ones
# a density matrix can only hold when they are put into it after its checks
DM_VALUES = [-0.0, 0.0, 5e-324, 0.5, 1 / 13, -0.1, 1e-300, 2.5e300, *HALF_CASES[:4]]
NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def density_matrices(draw):
    """Hermitian matrices over up to 8 pairs whose cells repeat a few values."""
    pairs = draw(
        st.lists(st.sampled_from(OamPairBasis.full(2).pairs), min_size=1, max_size=8, unique=True)
    )
    n = len(pairs)
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(DM_VALUES), st.floats(-1e3, 1e3)), min_size=1, max_size=4
        )
    )
    re, im = (
        np.array(draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n)))
        .reshape(n, n)
        for _ in range(2)
    )
    entries = np.empty((n, n), dtype=complex)
    entries.real, entries.imag = re, im
    lower = np.tril_indices(n, -1)
    entries[lower] = entries.T[lower].conj()
    entries.imag[np.diag_indices(n)] = np.copysign(0.0, im.diagonal())
    rho = PairDensityMatrix(OamPairBasis(pairs, 2), entries)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        part = rho.entries.real if draw(st.booleans()) else rho.entries.imag
        part[i, j] = draw(st.sampled_from(NON_FINITE))
    return rho


def _written_json(pairs, flat, values) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dm.json")
        outputs.write_json(path, pairs, flat, values)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


def assert_writes_json_dumps(rho) -> None:
    """``write_json`` writes ``json.dumps`` of rho's dict form when it holds the cells whose
    bits are not +0.0's in either part; those and the diagonal, as a sweep's positions
    do; or every cell."""
    expected = json.dumps(to_json_dict(rho), indent=2) + "\n"
    n = len(rho.basis)
    nonzero = np.union1d(support(rho.entries.real), support(rho.entries.imag))
    for flat in (nonzero, np.union1d(nonzero, np.arange(0, n * n, n + 1)), np.arange(n * n)):
        assert _written_json(rho.basis.pairs, flat, rho.entries.take(flat)) == expected


# what ``write_json`` splices into its template of +0.0 cells
SPLICED = [-0.0, 5e-324, -5e-324, 0.5, -1 / 13, 2.5e300, *NON_FINITE]


def with_cells(n: int, cells: dict) -> PairDensityMatrix:
    """A matrix over n pairs of +0.0 but ``cells``, by (part, i, j) with part "re" or "im"."""
    rho = PairDensityMatrix(OamPairBasis(OamPairBasis.full(2).pairs[:n], 2), np.zeros((n, n)))
    for (part, i, j), value in cells.items():
        (rho.entries.real if part == "re" else rho.entries.imag)[i, j] = value
    return rho


@st.composite
def mostly_zero_matrices(draw):
    """Matrices over 1-8 pairs of +0.0 but a few cells, often at the ends of a row or column."""
    n = draw(st.integers(1, 8))
    index = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    where = st.tuples(st.sampled_from(["re", "im"]), index, index)
    return with_cells(n, draw(st.dictionaries(where, st.sampled_from(SPLICED), max_size=6)))


# every cell of both parts nonzero
DENSE = {(part, i, j): (1 + i + 5 * j) / 7 for part in ("re", "im") for i, j in np.ndindex(5, 5)}


@settings(SETTINGS, max_examples=120)
@given(st.one_of(density_matrices(), mostly_zero_matrices()))
@example(PairDensityMatrix(OamPairBasis([(0, 0)], 0), np.array([[-0.0]])))
@example(PairDensityMatrix(OamPairBasis([(1, -1)], 1), np.array([[5e-324]])))
@example(with_cells(1, {}))
@example(with_cells(1, {("re", 0, 0): math.nan}))
@example(with_cells(4, {}))
@example(with_cells(3, {("re", 1, 0): -0.0}))
@example(with_cells(3, {("im", 2, 2): -0.0}))
@example(with_cells(4, {("re", 0, 0): math.nan, ("re", 3, 3): -math.inf, ("im", 0, 0): 5e-324}))
@example(with_cells(4, {("im", 3, 3): math.inf, ("re", 0, 3): 0.5, ("re", 3, 0): -0.0}))
@example(with_cells(3, {("re", i, j): -1 / 13 for i in range(3) for j in (0, 2)}))
@example(with_cells(5, DENSE))
def test_write_json_is_json_dumps_of_the_dict_form(rho):
    assert_writes_json_dumps(rho)


def test_write_json_splices_a_held_minus_zero_but_writes_a_held_plus_zero_as_zero():
    rho = with_cells(2, {("re", 0, 1): -0.0, ("im", 1, 0): -0.0, ("re", 1, 1): 0.5})
    # (0, 0) is a held +0.0 in both parts, (1, 0) a held +0.0 in its real part
    flat = np.arange(4)
    text = _written_json(rho.basis.pairs, flat, rho.entries.take(flat))
    assert text == json.dumps(to_json_dict(rho), indent=2) + "\n"
    assert text.count("-0.0") == 2


@pytest.mark.parametrize("n", [0, 3])
def test_write_json_of_no_held_cell(n):
    pairs = OamPairBasis.full(2).pairs[:n]
    expected = {"basis": [list(p) for p in pairs], "re": [[0.0] * n] * n, "im": [[0.0] * n] * n}
    text = _written_json(pairs, np.arange(0), np.zeros(0, dtype=complex))
    assert text == json.dumps(expected, indent=2) + "\n"


def test_write_json_of_a_sparse_density_matrix():
    n = 169
    re = np.zeros((n, n))
    for i in range(0, n, 13):
        re[i, i] = 1.0 / 13
        for j in range(0, n, 26):
            re[i, j] = re[j, i] = -0.0 if i == j else 0.1 * (1 + (i * j) % 7) / 13
    rho = PairDensityMatrix(OamPairBasis.full(6), re.astype(complex))
    assert_writes_json_dumps(rho)


@pytest.mark.parametrize("parts", [(), ("",), ("a,b\n", "\u00e9\u00b5", "<svg/>\n" * 3000)])
def test_write_text_returns_the_sha256_of_the_file(parts, tmp_path):
    """The same text as ``str`` parts, as ``bytes`` parts, or mixed: one file, one digest."""
    encoded = [part.encode("utf-8") for part in parts]
    mixed = [part if k % 2 else data for k, (part, data) in enumerate(zip(parts, encoded))]
    for name, given in (("str", parts), ("bytes", encoded), ("mixed", mixed)):
        path = str(tmp_path / name)
        digest = outputs.write_text(path, *given)
        with open(path, "rb") as fh:
            written = fh.read()
        assert written == b"".join(encoded)
        assert digest == hashlib.sha256(written).hexdigest()


@pytest.mark.parametrize(
    "temperatures, columns, values, lines",
    [
        ((), (1.0,), np.zeros((0, 1)), []),
        ((1.0,), (-0.0,), np.array([[-0.0]]), ["1.0,-0.0,-0.0"]),
        (
            (0.1, math.inf),
            (2.5e-300, 3),
            np.array([[5e-324, math.inf], [3.0, -0.0]]),
            ["0.1,2.5e-300,5e-324", "0.1,3.0,inf", "inf,2.5e-300,3.0", "inf,3.0,-0.0"],
        ),
        ((0.5,), (1, 2), np.array([[3, -4]]), ["0.5,1.0,3.0", "0.5,2.0,-4.0"]),
    ],
)
def test_write_csv_is_one_line_per_row_with_a_final_newline(
    temperatures, columns, values, lines, tmp_path
):
    path = str(tmp_path / "table.csv")
    outputs.write_csv(path, "t,c,v", temperatures, columns, values)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == "".join(line + "\n" for line in ["t,c,v", *lines])


def test_a_manifest_that_cannot_be_placed_leaves_no_file(tmp_path, monkeypatch):
    """``write_manifest`` removes its temporary file when the final rename fails."""

    def refuse(src, dst):
        raise OSError("cannot replace")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="^cannot replace$"):
        outputs.write_manifest(str(tmp_path), {"grid.temperatures": "0.5"}, [], "0", 0.1, {})
    assert os.listdir(tmp_path) == []
