"""Output checks applied to every benchmark invocation.

Every seed: the manifest lists exactly the expected files and their SHA-256
values match; ``rates_cp`` peaks at exactly 1; both rate surfaces are
symmetric under d -> -d; every density matrix is Hermitian, positive
semidefinite and of trace 1; every fidelity lies in [0, 1].

Seed 0 also compares each data file with the committed reference values in
``reference/<workload>.json``: the normwise relative deviation
||x - x_ref|| / ||x_ref|| of each file must stay within the spectral
convergence tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-9
SYMMETRY_TOL = 1e-9

_HEADERS = {
    "rates": "t_over_tc,detuning_over_delta0,rate_normalized",
    "fidelity": "t_over_tc,enhancement,fidelity",
}


class CheckFailed(Exception):
    """An invocation's outputs are missing, inconsistent or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def find_out_dir(cwd: str) -> str:
    """The one directory under ``cwd`` that holds a manifest."""
    found = [
        os.path.join(cwd, d)
        for d in sorted(os.listdir(cwd))
        if os.path.isfile(os.path.join(cwd, d, "manifest.json"))
    ]
    _require(len(found) == 1, f"expected one output directory with a manifest, found {found}")
    return found[0]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_csv(path: str, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(bool(lines) and lines[0] == header, f"{path}: header is not {header!r}")
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}") from exc
    _require(table.ndim == 2 and table.shape[1] == 3, f"{path}: expected 3 columns")
    _require(bool(np.isfinite(table).all()), f"{path}: non-finite value")
    return table


def _blocks(column: np.ndarray, outer, name: str, path: str) -> int:
    """Check that ``column`` holds each value of ``outer`` in turn, in equal blocks."""
    n = len(outer)
    _require(n > 0 and len(column) % n == 0, f"{path}: {len(column)} rows for {n} {name}")
    inner = len(column) // n
    expected = np.repeat(np.asarray(outer, dtype=float), inner)
    _require(bool(np.array_equal(column, expected)), f"{path}: {name} column out of order")
    return inner


def _check_rates(inv, out_dir: str) -> dict:
    data = {}
    for stem in ("rates_cp", "rates_bqp"):
        path = os.path.join(out_dir, stem + ".csv")
        table = _read_csv(path, _HEADERS["rates"])
        n_d = _blocks(table[:, 0], inv.temperatures, "temperatures", path)
        grid = table[:, 1].reshape(-1, n_d)
        _require(bool((grid == grid[0]).all()), f"{path}: detuning grid differs between rows")
        _require(
            bool(np.allclose(grid[0], -grid[0][::-1], rtol=0, atol=SYMMETRY_TOL)),
            f"{path}: detuning grid is not symmetric",
        )
        values = table[:, 2].reshape(-1, n_d)
        scale = float(np.abs(values).max())
        asym = float(np.abs(values - values[:, ::-1]).max())
        _require(asym <= SYMMETRY_TOL * scale, f"{path}: not symmetric under d -> -d ({asym})")
        if stem == "rates_cp":
            _require(float(values.max()) == 1.0, f"{path}: maximum is {values.max()}, not 1")
        data[stem + ".csv"] = values.ravel()
    return data


def _check_dm(inv, out_dir: str) -> dict:
    data = {}
    for name in inv.expected_files():
        if not name.endswith(".json"):
            continue
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        n = len(payload["basis"])
        rho = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
        _require(rho.shape == (n, n), f"{path}: matrix shape {rho.shape} for {n} basis pairs")
        _require(bool(np.isfinite(rho).all()), f"{path}: non-finite entry")
        scale = max(1.0, float(np.abs(rho).max()))
        herm = float(np.abs(rho - rho.conj().T).max())
        _require(herm <= HERMITIAN_TOL * scale, f"{path}: not Hermitian ({herm})")
        trace = complex(np.trace(rho))
        _require(abs(trace - 1.0) <= TRACE_TOL, f"{path}: trace {trace}, not 1")
        lowest = float(np.linalg.eigvalsh(rho).min())
        _require(lowest >= -PSD_TOL, f"{path}: not PSD (eigenvalue {lowest})")
        data[name] = rho
    return data


def _check_fidelity(inv, out_dir: str) -> dict:
    path = os.path.join(out_dir, "fidelity.csv")
    table = _read_csv(path, _HEADERS["fidelity"])
    n_e = _blocks(table[:, 0], inv.temperatures, "temperatures", path)
    enh = table[:, 1].reshape(-1, n_e)
    _require(
        bool((enh == np.asarray(inv.spec.enhancements)).all()), f"{path}: enhancement column"
    )
    values = table[:, 2]
    _require(bool(((values >= 0.0) & (values <= 1.0)).all()), f"{path}: fidelity outside [0, 1]")
    return {"fidelity.csv": values}


_CHECKS = {"rates": _check_rates, "dm": _check_dm, "fidelity": _check_fidelity}


def check_outputs(inv, out_dir: str) -> dict:
    """Check one invocation's outputs; return its data arrays keyed by file name."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            listed = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"unreadable manifest: {exc!r}") from exc
    expected = inv.expected_files()
    _require(tuple(sorted(listed)) == expected, f"manifest lists {sorted(listed)}, not {expected}")
    for name, digest in listed.items():
        path = os.path.join(out_dir, name)
        _require(os.path.isfile(path), f"{name} is missing")
        _require(_sha256(path) == digest, f"{name} does not match its manifest SHA-256")
    try:
        return _CHECKS[inv.argv[0]](inv, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc


def reference_entry(values: np.ndarray) -> dict:
    """JSON form of one file's reference values; matrices keep only nonzero entries."""
    if values.ndim == 1:
        return {"values": [float(v) for v in values]}
    rows, cols = np.nonzero(values)
    return {
        "shape": list(values.shape),
        "nonzero": [
            [int(i), int(j), float(values[i, j].real), float(values[i, j].imag)]
            for i, j in zip(rows, cols)
        ],
    }


def reference_array(entry: dict) -> np.ndarray:
    if "values" in entry:
        return np.asarray(entry["values"], dtype=float)
    out = np.zeros(entry["shape"], dtype=complex)
    for i, j, re, im in entry["nonzero"]:
        out[i, j] = complex(re, im)
    return out


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(data: dict, reference: dict, rtol: float) -> float:
    """Largest normwise relative deviation from the reference; fails above ``rtol``."""
    files = reference["files"]
    _require(sorted(data) == sorted(files), f"data files {sorted(data)} != reference {sorted(files)}")
    worst = 0.0
    for name, entry in files.items():
        ref = reference_array(entry)
        got = data[name]
        _require(got.shape == ref.shape, f"{name}: shape {got.shape}, reference {ref.shape}")
        ref_norm = float(np.linalg.norm(ref))
        dev = float(np.linalg.norm(got - ref)) / (ref_norm if ref_norm > 0 else 1.0)
        _require(
            math.isfinite(dev) and dev <= rtol,
            f"{name}: relative deviation {dev:.3e} from reference exceeds {rtol:g}",
        )
        worst = max(worst, dev)
    return worst
