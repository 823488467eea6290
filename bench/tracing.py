"""Spans around the calls into each sled_oam module, recorded from outside.

A ``Tracer`` wraps functions of the package without editing its source: every
binding of a traced function in every loaded ``sled_oam`` module (including
``from ... import`` copies and the package re-exports) is replaced by one
wrapper.  Spans are kept in memory as plain lists and written out once the
invocation ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PACKAGE = "sled_oam"

# name, start, end, parent index (-1 for a root), invocation id, raised?, note
NAME, START, END, PARENT, INVOCATION, ERROR, NOTE = range(7)


def _kappa_key(args, kwargs):
    a, b, geom = args[:3]
    lo, hi = sorted((a, b))
    return f"{lo.m},{lo.l}|{hi.m},{hi.l}|{geom.r_inner},{geom.r_outer},{geom.waist}"


def _matrix_size(args, kwargs):
    return len(args[0])


def _surface_points(args, kwargs):
    grid = args[0]
    return 2 * len(grid.detunings) * len(grid.temperatures)


# (module, attribute path, note) for each layer boundary that is traced: the
# public functions one module calls in another, plus the named hot spots
# metrics.fidelity, metrics.eigh and modes.lg_radial.  A name a later version
# of the package no longer has is skipped and counts as zero calls.
TARGETS = (
    ("config", "load_config", None),
    ("config", "RunConfig.basis", None),
    ("bcs", "gaas_nb_junction", None),
    ("bcs", "gap_at_temperature", None),
    ("bcs", "quasiparticle_energy", None),
    ("bcs", "coherence_factors", None),
    ("bcs", "fermi_occupation", None),
    ("bcs", "fermi_occupation_complement", None),
    ("spectral", "rate_surfaces", _surface_points),
    ("spectral", "mixing_rates", None),
    ("modes", "kappa", _kappa_key),
    ("modes", "lg_radial", None),
    ("pair_state", "rho_total", None),
    ("pair_state", "rho_total_superposition", None),
    ("pair_state", "sector_pairs", None),
    ("pair_state", "PairDensityMatrix.to_json_dict", None),
    ("metrics", "fidelity_curve", None),
    ("metrics", "bell_target", None),
    ("metrics", "fidelity", None),
    ("metrics", "eigh", _matrix_size),
    ("outputs", "write_text", None),
    ("outputs", "write_csv", None),
    ("outputs", "write_json", None),
    ("outputs", "write_manifest", None),
    ("outputs", "svg_heatmap", None),
    ("outputs", "svg_matrix", None),
    ("outputs", "svg_lines", None),
)


class Tracer:
    """Collects spans for one invocation."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list = []
        self._local = threading.local()

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, False, None]
            if note is not None:
                try:
                    span[NOTE] = note(args, kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed signature loses the note, never the call
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> list:
        """Wrap every binding of each target; return the span names installed."""
        installed = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        for module_name, path, note in targets:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self.wrap(f"{module_name}.{attr}", original, note)
            if owners:
                setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            installed.append(f"{module_name}.{attr}")
        return installed


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval its children cover."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
