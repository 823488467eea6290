"""Write rate_reference.json: body rates of the fig2 junction at 1000 fs, on fine Gregory rules.

    python3 tests/reference/make_rate_reference.py

For each reduced temperature t and detuning |d| (in gap units) it takes the
package's own kernels, K(d) + K(-d) of both channels on the nodes of a
``_BandTables`` built at the default cutoff, and integrates them with
Gregory's rule: the trapezoid's weights minus, at each end, the end
corrections sum_k c_k [nabla^k f_N + (-1)^k Delta^k f_0], k = 1..6, with

    c = 1/12, 1/24, 19/720, 3/160, 863/60480, 275/24192

(Fornberg, "Improving the accuracy of the trapezoidal rule", SIAM Review 63,
2021).  The reported rates use 8193 nodes.  The same rule on 16 385 nodes
must agree within ``CROSS_CHECK_RTOL``; the agreement reached is printed.
Each sum is taken with ``math.fsum``, so no BLAS kernel enters the numbers.

These are the body rates, the integral to the default cutoff of
40 delta0 above mu^n; the tail beyond it is not included.  Each rate is
stored as its shortest round-trip decimal, by "t,|d|".
"""

import json
import math
import os

import numpy as np

from sled_oam.bcs import gaas_nb_junction
from sled_oam.spectral import KQuadrature, _BandTables

DEPHASING_FS = 1000.0
TEMPERATURES = (0.05, 0.5, 0.95)
DETUNINGS = (0.0, 2.0, 5.0, 6.0)
NODES = 8193
CHECK_NODES = 16385
CROSS_CHECK_RTOL = 1e-13
GREGORY = (1 / 12, 1 / 24, 19 / 720, 3 / 160, 863 / 60480, 275 / 24192)


def gregory_weights(nodes: int, length: float) -> np.ndarray:
    """Gregory weights of ``nodes`` equispaced nodes over an interval of ``length``."""
    h = length / (nodes - 1)
    weights = np.ones(nodes)
    weights[[0, -1]] = 0.5
    # nabla^k f_N and (-1)^k Delta^k f_0 weigh f_N-j and f_j alike: (-1)^j C(k, j)
    for k, c in enumerate(GREGORY, start=1):
        for j in range(k + 1):
            weights[j] -= c * (-1) ** j * math.comb(k, j)
            weights[nodes - 1 - j] -= c * (-1) ** j * math.comb(k, j)
    return h * weights


def body_rates(nodes: int) -> dict:
    """(coherent, incoherent) by (t, |d|) from the kernels on ``nodes`` nodes."""
    jp = gaas_nb_junction(dephasing_time=DEPHASING_FS)
    tables = _BandTables(jp, KQuadrature(nodes=nodes))
    length = jp.conduction.quasi_fermi_level + KQuadrature().cutoff_delta0 * jp.sc.delta0
    weights = gregory_weights(nodes, length)
    rates = {}
    for t in TEMPERATURES:
        tables.fill(t)
        for d in DETUNINGS:
            tables.rates(d, jp.sc.delta0)
            # the kernels ``rates`` leaves: K(d) + K(-d) of the pair channel, and
            # |K(d) + K(-d)|^2 of the quasiparticle channel
            pair, qp = tables._sums[0], tables._mag
            pair_sum = complex(
                math.fsum((weights * pair.real).tolist()), math.fsum((weights * pair.imag).tolist())
            )
            qp_sum = math.fsum((weights * qp).tolist())
            rates[t, d] = tables._channel_values(pair_sum, qp_sum)
    return rates


def main() -> None:
    rates, check = body_rates(NODES), body_rates(CHECK_NODES)
    worst = max(
        abs(fine - value) / value
        for key, pair in rates.items()
        for value, fine in zip(pair, check[key])
    )
    print(f"{NODES} against {CHECK_NODES} nodes: worst relative difference {worst:.2g}")
    if not worst <= CROSS_CHECK_RTOL:
        raise SystemExit(f"the two rules differ by {worst:.2g}, over {CROSS_CHECK_RTOL:g}")
    table = {
        "dephasing_time_fs": DEPHASING_FS,
        "nodes": NODES,
        "rates": {
            f"{t!r},{d!r}": {"coherent": coherent, "incoherent": incoherent}
            for (t, d), (coherent, incoherent) in rates.items()
        },
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rate_reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
