"""Write gap_reference.json: the weak-coupling BCS gap delta(t) = Delta(T)/Delta0, from mpmath.

    python3 tests/reference/make_gap_reference.py

In units of Delta0, with E = sqrt(xi^2 + delta^2), the gap solves

    ln(1/delta) = 2 * integral_0^inf f(E)/E dxi,  f(E) = 1/(exp(E/tau) + 1),

where tau = k_B T/Delta0 = t e^gamma/pi at reduced temperature t = T/Tc, since
Delta0 = pi e^(-gamma) k_B Tc (Muehlschlegel, Z. Phys. 155, 313, 1959,
tabulates the solution).  Each delta is ``mpmath.findroot`` started from the
interpolation tanh(1.74 sqrt(1/t - 1)), with the integral taken by
``mpmath.quad`` split at [0, delta, 10 tau + delta, 60 tau + delta, inf].

Every point is solved at 30 and at 40 significant digits, and the two must
agree within ``CROSS_CHECK_ABS``; the largest difference is printed.  Each
value is stored as its shortest round-trip decimal, by t.
"""

import json
import os

import mpmath

TEMPERATURES = [round(0.05 * k, 2) for k in range(1, 20)] + [0.99, 0.999]
CROSS_CHECK_ABS = 1e-25


def gap(t: float) -> mpmath.mpf:
    """delta(t) at the working precision of ``mpmath.mp``."""
    tau = mpmath.mpf(t) * mpmath.exp(mpmath.euler) / mpmath.pi

    def excess(delta):
        def integrand(xi):
            e = mpmath.sqrt(xi * xi + delta * delta)
            return 1 / ((mpmath.exp(e / tau) + 1) * e)

        cuts = [0, delta, 10 * tau + delta, 60 * tau + delta, mpmath.inf]
        return mpmath.log(1 / delta) - 2 * mpmath.quad(integrand, cuts)

    start = mpmath.tanh(mpmath.mpf("1.74") * mpmath.sqrt(1 / mpmath.mpf(t) - 1))
    return mpmath.findroot(excess, start)


def main() -> None:
    solved = {}
    for dps in (30, 40):
        mpmath.mp.dps = dps
        solved[dps] = [gap(t) for t in TEMPERATURES]
    worst = max(abs(a - b) for a, b in zip(solved[30], solved[40]))
    print(f"30 and 40 digits agree within {mpmath.nstr(worst, 3)}")
    if not worst <= CROSS_CHECK_ABS:
        raise SystemExit(f"precisions disagree by {mpmath.nstr(worst, 3)} > {CROSS_CHECK_ABS}")
    table = {str(t): float(delta) for t, delta in zip(TEMPERATURES, solved[40])}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gap_reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
