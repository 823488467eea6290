"""The dense dm-JSON payload of a density matrix, for tests that read or pin ``dm_*.json``.

``outputs.write_json`` writes ``json.dumps(to_json_dict(rho), indent=2)`` and
a newline, byte for byte, without forming the payload; ``from_json_dict``
reads such a file back into a ``PairDensityMatrix``.
"""

import numpy as np

from sled_oam.pair_state import OamPairBasis, PairDensityMatrix


def to_json_dict(rho: PairDensityMatrix) -> dict:
    """The basis as [l1, l2] lists, then the real and the imaginary parts as nested row lists."""
    return {
        "basis": [[l1, l2] for l1, l2 in rho.basis.pairs],
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
    }


def from_json_dict(payload: dict) -> PairDensityMatrix:
    """The matrix of a ``to_json_dict`` payload, on a basis whose l_max is its largest |l|."""
    pairs = [tuple(p) for p in payload["basis"]]
    l_max = max((max(abs(l1), abs(l2)) for l1, l2 in pairs), default=0)
    basis = OamPairBasis(pairs, l_max)
    entries = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    return PairDensityMatrix(basis, entries)
