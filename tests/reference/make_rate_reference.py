"""Write the fig2 junction's rates at 1000 fs on fine rules: to the cutoff and to infinity.

    python3 tests/reference/make_rate_reference.py

For each reduced temperature t and detuning |d| (in gap units) it takes the
package's own kernels, K(d) + K(-d) of both channels on the nodes of a
``_BandTables`` built at the default cutoff Lambda = mu^n + 40 delta0, and
integrates them with Gregory's rule: the trapezoid's weights minus, at each
end, the end corrections sum_k c_k [nabla^k f_N + (-1)^k Delta^k f_0],
k = 1..6, with

    c = 1/12, 1/24, 19/720, 3/160, 863/60480, 275/24192

(Fornberg, "Improving the accuracy of the trapezoidal rule", SIAM Review 63,
2021).  rate_reference.json holds these body rates, the integral to the
cutoff only, on 8193 nodes; the same rule on 16 385 nodes must agree within
``CROSS_CHECK_RTOL``.

untruncated_rate_reference.json adds the tail past the cutoff to the
16 385-node body.  With eps = Lambda/u the tail is the integral over u in
(0, 1] of K(Lambda/u) Lambda/u^2, smooth in u; it is taken by a 64-node
Gauss-Legendre rule in u, weights Lambda w_i/u_i^2, on the package's own
kernels at eps_i = Lambda/u_i: a ``_BandTables`` whose xi_n and xi_p are
rewritten to eps_i - mu^n and (m^n/m^p) eps_i - mu^p.  The same with 128 tail
nodes must agree within ``CROSS_CHECK_RTOL``.

The agreement reached is printed.  Every sum is taken with ``math.fsum`` over
all its terms, body and tail together, so no BLAS kernel enters the numbers.
Each rate is stored as its shortest round-trip decimal, by "t,|d|".
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
TAIL_NODES = 64
CHECK_TAIL_NODES = 128
CROSS_CHECK_RTOL = 1e-13
GREGORY = (1 / 12, 1 / 24, 19 / 720, 3 / 160, 863 / 60480, 275 / 24192)
JUNCTION = gaas_nb_junction(dephasing_time=DEPHASING_FS)
CUTOFF = JUNCTION.conduction.quasi_fermi_level + KQuadrature().cutoff_delta0 * JUNCTION.sc.delta0


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


def weighted_kernels(tables: _BandTables, weights: np.ndarray) -> dict:
    """Terms (re pair, im pair, |qp|^2) by (t, |d|): the weights times the table's kernels."""
    terms = {}
    for t in TEMPERATURES:
        tables.fill(t)
        for d in DETUNINGS:
            tables.rates(d, JUNCTION.sc.delta0)
            # the kernels ``rates`` leaves: K(d) + K(-d) of the pair channel, and
            # |K(d) + K(-d)|^2 of the quasiparticle channel
            pair, qp = tables._sums[0], tables._mag
            terms[t, d] = [(weights * y).tolist() for y in (pair.real, pair.imag, qp)]
    return terms


def body_terms(nodes: int) -> dict:
    """Gregory's rule to the cutoff on ``nodes`` nodes."""
    tables = _BandTables(JUNCTION, KQuadrature(nodes=nodes))
    return weighted_kernels(tables, gregory_weights(nodes, CUTOFF))


def tail_terms(nodes: int) -> dict:
    """The ``nodes``-point Gauss-Legendre rule in u = CUTOFF/eps past the cutoff."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = (x + 1.0) / 2.0
    eps = CUTOFF / u
    tables = _BandTables(JUNCTION, KQuadrature(nodes=nodes))
    np.subtract(eps, JUNCTION.conduction.quasi_fermi_level, out=tables._xi_n)
    mass_ratio = JUNCTION.conduction.effective_mass / JUNCTION.valence.effective_mass
    np.subtract(mass_ratio * eps, JUNCTION.valence.quasi_fermi_level, out=tables._xi_p)
    return weighted_kernels(tables, CUTOFF * (w / 2.0) / u**2)


def summed(*parts: dict) -> dict:
    """(coherent, incoherent) by (t, |d|), each sum one ``math.fsum`` over every part's terms."""
    tables = _BandTables(JUNCTION, KQuadrature(nodes=64))  # for its patch state count
    rates = {}
    for key in parts[0]:
        re, im, qp = ([s for part in parts for s in part[key][k]] for k in range(3))
        pair_sum = np.complex128(complex(math.fsum(re), math.fsum(im)))
        rates[key] = tables._channel_values(pair_sum, np.float64(math.fsum(qp)))
    return rates


def cross_check(label: str, rates: dict, check: dict) -> None:
    worst = max(
        abs(fine - value) / value
        for key, pair in rates.items()
        for value, fine in zip(pair, check[key])
    )
    print(f"{label}: worst relative difference {worst:.2g}")
    if not worst <= CROSS_CHECK_RTOL:
        raise SystemExit(f"{label} differ by {worst:.2g}, over {CROSS_CHECK_RTOL:g}")


def write(name: str, rates: dict, **rules) -> None:
    table = {
        "dephasing_time_fs": DEPHASING_FS,
        **rules,
        "rates": {
            f"{t!r},{d!r}": {"coherent": coherent, "incoherent": incoherent}
            for (t, d), (coherent, incoherent) in rates.items()
        },
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


def main() -> None:
    body, fine_body = body_terms(NODES), body_terms(CHECK_NODES)
    rates = summed(body)
    cross_check(f"{NODES} against {CHECK_NODES} nodes", rates, summed(fine_body))
    tail = tail_terms(TAIL_NODES)
    untruncated = summed(fine_body, tail)
    check = summed(fine_body, tail_terms(CHECK_TAIL_NODES))
    cross_check(f"{TAIL_NODES} against {CHECK_TAIL_NODES} tail nodes", untruncated, check)
    write("rate_reference.json", rates, nodes=NODES)
    write("untruncated_rate_reference.json", untruncated, nodes=CHECK_NODES, tail_nodes=TAIL_NODES)


if __name__ == "__main__":
    main()
