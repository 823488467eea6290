"""The dense one-shot mixture of two channel matrices, for tests that check the sweep against it.

``pair_state.mixture_sweep`` forms every mixture of the program at its held
cells; this forms one on the full matrix from ``rho_superposition`` (or
``rho_cp``) and ``rho_bqp``, with the same weights, and its bits equal the
sweep's at the held cells and +0.0 at every other.
"""

from sled_oam.pair_state import PairDensityMatrix, _weights


def mixture(
    coherent: PairDensityMatrix, incoherent: PairDensityMatrix, r_cp: float, r_bqp: float
) -> PairDensityMatrix:
    """Trace-1 mixture of the two unnormalized channel matrices weighted by their rates."""
    tr_cp, tr_bqp = coherent.trace(), incoherent.trace()
    a, b = _weights(tr_cp, tr_bqp, r_cp, r_bqp)
    mixed = a * (coherent.entries / tr_cp) + b * (incoherent.entries / tr_bqp)
    return PairDensityMatrix(coherent.basis, mixed).normalize()
