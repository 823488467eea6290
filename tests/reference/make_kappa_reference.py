"""Write kappa_reference.json: the annulus overlaps of every |l| <= 12 pair, from mpmath.

    python3 tests/reference/make_kappa_reference.py

With u_l(r) = (2/w) sqrt(1/|l|!) (sqrt(2) r/w)^|l| exp(-r^2/w^2) and
x = 2 r^2/w^2, the overlap over [r_in, r_out] is a lower incomplete gamma
difference,

    kappa(l_a, l_b) = [gamma(s+1, x_out) - gamma(s+1, x_in)] / sqrt(|l_a|! |l_b|!),
    s = (|l_a| + |l_b|)/2,

taken here as ``mpmath.gammainc(s + 1, x_in, x_out)`` at 40 significant digits.
Each radius and waist is the float the test builds its geometry from, converted
exactly.  Each value is stored as a 40-digit decimal string, by "|l_a|,|l_b|"
with |l_a| <= |l_b|.
"""

import json
import math
import os

import mpmath

MAX_OAM = 12
# name: (r_inner, r_outer, waist) in um; "default" is AnnulusGeometry.default()
ANNULI = {
    "default": (4.0, 5.0, 9.0 / math.sqrt(2.0)),
    "disc_0_20_w3": (0.0, 20.0, 3.0),
    "ring_1_2.5_w1.2": (1.0, 2.5, 1.2),
    "thin_4_4.01": (4.0, 4.01, 9.0 / math.sqrt(2.0)),
}


def overlap(la: int, lb: int, r_inner: float, r_outer: float, waist: float):
    w = mpmath.mpf(waist)
    x_in, x_out = (2 * mpmath.mpf(r) ** 2 / w**2 for r in (r_inner, r_outer))
    s = mpmath.mpf(la + lb) / 2
    return mpmath.gammainc(s + 1, x_in, x_out) / mpmath.sqrt(
        mpmath.factorial(la) * mpmath.factorial(lb)
    )


def main() -> None:
    mpmath.mp.dps = 40
    table = {}
    for name, (r_inner, r_outer, waist) in ANNULI.items():
        values = {
            f"{la},{lb}": mpmath.nstr(overlap(la, lb, r_inner, r_outer, waist), 40)
            for la in range(MAX_OAM + 1)
            for lb in range(la, MAX_OAM + 1)
        }
        table[name] = {"r_inner": r_inner, "r_outer": r_outer, "waist": waist, "kappa": values}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kappa_reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
