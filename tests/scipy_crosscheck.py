"""Compare `tracewatt.stats.ptukey` with scipy on a fixed grid of 1,176 points.

The grid is k in {2, 3, 5, 8, 12, 20, 30}, twelve error dfs from 1 to
10,000 and fourteen q values from 0.1 to 50.  The reference is scipy's
`studentized_range.cdf`, or for k = 2 the exact two-group value
1 - betainc(df/2, 1/2, df/(df + q^2/2)).  The script prints the worst
points and exits 1 if any point is more than TOLERANCE from its reference
(or raises).

scipy is needed only here: the file has no `test_` prefix, so pytest does
not collect it and the tier-1 suite stays stdlib-only.  Run it with

    pip install scipy
    PYTHONPATH=src python tests/scipy_crosscheck.py
"""

import itertools
import sys

import scipy.special
import scipy.stats

from tracewatt.stats import ptukey

TOLERANCE = 1e-9
K = (2, 3, 5, 8, 12, 20, 30)
DF = (1, 2, 3, 5, 10, 20, 50, 88, 200, 978, 5000, 10000)
Q = (0.1, 0.5, 1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50)


def reference(q: float, k: int, df: float) -> float:
    if k == 2:
        return 1.0 - float(scipy.special.betainc(df / 2, 0.5, df / (df + q * q / 2)))
    return float(scipy.stats.studentized_range.cdf(q, k, df))


def grid_errors() -> dict:
    """|ptukey - reference| at every grid point; inf where ptukey raises."""
    errors = {}
    for k, df, q in itertools.product(K, DF, Q):
        try:
            value = ptukey(q, k, df)
        except ArithmeticError:
            value = float("inf")
        errors[(q, k, df)] = abs(value - reference(q, k, df))
    return errors


def main() -> int:
    errors = grid_errors()
    worst = sorted(errors.items(), key=lambda item: item[1], reverse=True)
    print(f"{len(errors)} points, worst |ptukey - scipy|:")
    for (q, k, df), error in worst[:10]:
        print(f"  q={q:<5} k={k:<3} df={df:<6} {error:.3g}")
    failed = [point for point, error in worst if not error <= TOLERANCE]
    print(f"{len(failed)} points beyond {TOLERANCE:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
