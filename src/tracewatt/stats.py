"""Small-sample statistics kernel: one-way ANOVA, F-distribution tail
probabilities via the regularized incomplete beta function, the
studentized range distribution, and Tukey HSD (Tukey-Kramer for unequal
group sizes) post-hoc tests.

The studentized range CDF integrates the normal range CDF R(w; k) over the
density of the sample standard deviation (Copenhaver & Holland, 1988).  R
is read from a piecewise Chebyshev table kept per k for the process, so
the pairs of one Tukey family share one table.  Each piece is built on
its first read, or all of them at once by ``build_range_cdf_table``,
which ``evolve`` runs on a CPU its analysis leaves idle.  The outer
integral's nodes and density weights are kept per interval, panel count
and df, so the pairs of a family whose q puts no split inside the s
range share them too; ``ptukey`` says where the integral is skipped.

Everything here is pure and reentrant; no external numeric libraries.
"""

import math
import operator
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Optional, Sequence

BETA_CF_MAX_ITER = 300
BETA_CF_REL_TOL = 1e-12
PTUKEY_OUTER_ABS_TOL = 1e-10
# outer doublings before ConvergenceError; with the split at W_k / q, a scan
# of k 3..100, df 1..1e7 and q up to 1e5 needs at most three
PTUKEY_MAX_DOUBLINGS = 8
PTUKEY_TAIL_CUT = 2.0**-53
# Above this many error degrees of freedom the sample scale is taken as a
# point mass at 1 and the outer integral is skipped.  That costs about
# 0.3/df; the outer integral's own error grows about as 7e-16 * df, from
# rounding in its log normalizing constant.  The two meet near 2e7, at
# about 1.5e-8 (checked at k=2 against the exact t tail).
PTUKEY_LARGE_DF = 2e7
_GL_ORDER = 24  # Gauss-Legendre nodes per quadrature panel
_RANGE_PANELS = 8  # panels of the range CDF quadrature behind the table
_CHEB_PIECES = 14  # pieces of the range CDF table on [0, W_k]
_CHEB_NODES = 20  # Chebyshev nodes per piece
_Z_LIM = 8.5
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ConvergenceError(ArithmeticError):
    """An iterative evaluation failed to reach its tolerance."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} after {iterations} iterations")
        self.iterations = iterations


class AnovaResult(NamedTuple):
    F: float
    p: float
    df_between: int
    df_within: int
    ms_between: float
    ms_within: float
    degenerate: bool = False


class TukeyPair(NamedTuple):
    """One pairwise comparison; mean_diff is mean(group_b) - mean(group_a)."""

    group_a: str
    group_b: str
    mean_diff: float
    q: float
    p_adj: float
    significant: bool


def float_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0: the same bits on every Python,
    where the built-in sum() of floats is compensated since 3.12."""
    return reduce(operator.add, values, 0.0)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1],
    by Newton iteration on the Legendre recurrence."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        dp = 0.0
        for _ in range(100):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even then the odd step of the fraction
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < BETA_CF_REL_TOL:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x}",
        BETA_CF_MAX_ITER,
    )


# B_2n / (2n (2n - 1)): Stirling's series for ln Gamma(x) - ((x - 1/2) ln x
# - x + ln(2 pi) / 2), within 1e-16 at x >= 10 with these seven terms
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_correction(x: float) -> float:
    return float_sum(c / x ** (2 * n + 1) for n, c in enumerate(_STIRLING))


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b).  With the larger argument at 10 or more, Stirling's series
    gives lgamma(hi) - lgamma(lo + hi) without subtracting two values near
    hi ln hi (DiDonato & Morris, 1992), so the result keeps its accuracy at
    large shape parameters."""
    lo, hi = min(a, b), max(a, b)
    if hi < 10.0:
        return math.lgamma(lo) + math.lgamma(hi) - math.lgamma(lo + hi)
    return (
        math.lgamma(lo)
        - (hi - 0.5) * math.log1p(lo / hi)
        - lo * math.log(lo + hi)
        + lo
        + _stirling_correction(hi)
        - _stirling_correction(lo + hi)
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be > 0, got a={a}, b={b}")
    if x < 0 or x > 1:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)
    front = math.exp(ln_front)
    # evaluate on the side where the continued fraction converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_upper_tail(f_stat: float, df1: int, df2: int) -> float:
    """Upper-tail probability P(F > f) for the F(df1, df2) distribution."""
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if f_stat < 0:
        raise ValueError(f"F statistic must be >= 0, got {f_stat}")
    if f_stat == 0.0:
        return 1.0
    if math.isinf(f_stat):
        return 0.0
    x = df2 / (df2 + df1 * f_stat)
    return regularized_incomplete_beta(0.5 * df2, 0.5 * df1, x)


def _panel_nodes(lo: float, hi: float, panels: int) -> list[tuple[float, float]]:
    """(node, weight) pairs of Gauss-Legendre quadrature on [lo, hi] split
    into ``panels`` equal panels."""
    xs, ws = _gauss_legendre(_GL_ORDER)
    h = (hi - lo) / panels
    half = 0.5 * h
    return [
        (lo + (p + 0.5) * h + half * x, w * half)
        for p in range(panels)
        for x, w in zip(xs, ws)
    ]


@lru_cache(maxsize=None)
def _range_nodes(panels: int) -> tuple[tuple[float, float, float], ...]:
    """(z, weight times the normal density, normal CDF) per node of _range_cdf."""
    return tuple(
        (z, weight * _INV_SQRT_2PI * math.exp(-0.5 * z * z), normal_cdf(z))
        for z, weight in _panel_nodes(-_Z_LIM, _Z_LIM, panels)
    )


def _range_cdf(ws: Sequence[float], k: int, panels: int) -> list[float]:
    """P(range of k iid standard normals <= w) for each w in ``ws``, by
    Gauss-Legendre quadrature on ``panels`` panels over [-Z_LIM, Z_LIM]."""
    nodes = _range_nodes(panels)
    km1 = k - 1
    erfc = math.erfc
    values = []
    for w in ws:
        total = 0.0
        for z, fw, cdf in nodes:
            d = cdf - 0.5 * erfc((w - z) / _SQRT2)
            if d > 0.0:
                total += fw * d**km1
        values.append(min(1.0, k * total))
    return values


@lru_cache(maxsize=None)
def _range_cdf_table(k: int) -> tuple[float, float, int, list]:
    """Piecewise Chebyshev interpolant of the range CDF R(w; k): (top,
    piece width, k, coefficients per piece).  It covers [0, top], where
    k * erfc(top / (2 sqrt 2)) < 2**-53 bounds 1 - R(top).  A piece is
    None until its first read builds it (``_range_cdf_piece``)."""
    top = 0.0
    while k * math.erfc(top / (2.0 * _SQRT2)) >= PTUKEY_TAIL_CUT:
        top += 0.125
    return top, top / _CHEB_PIECES, k, [None] * _CHEB_PIECES


@lru_cache(maxsize=None)
def _cheb_basis() -> tuple[tuple[float, ...], tuple[tuple[float, tuple[float, ...]], ...]]:
    """cos(a) at the _CHEB_NODES Chebyshev angles a, and per order m,
    highest first, the scale (2 - [m = 0]) / n with the row cos(m a)."""
    n = _CHEB_NODES
    angles = [math.pi * (j + 0.5) / n for j in range(n)]
    return tuple(math.cos(a) for a in angles), tuple(
        ((2.0 - (m == 0)) / n, tuple(math.cos(m * a) for a in angles))
        for m in reversed(range(n))
    )


def _range_cdf_piece(table: tuple, p: int) -> tuple[float, ...]:
    """Build and store piece ``p`` of ``table``: the coefficients, highest
    order first, of R's interpolant at the piece's Chebyshev points."""
    _, h, k, pieces = table
    cosines, rows = _cheb_basis()
    f = _range_cdf([(p + 0.5 + 0.5 * c) * h for c in cosines], k, _RANGE_PANELS)
    pieces[p] = tuple(
        scale * float_sum(v * c for v, c in zip(f, row)) for scale, row in rows
    )
    return pieces[p]


def build_range_cdf_table(k: int) -> None:
    """Build now every piece of the range CDF table that ``ptukey`` reads
    for k groups, each as its first read would: for k >= 3 only, as
    k = 2 has the exact t formula."""
    if k >= 3:
        table = _range_cdf_table(k)
        for p, piece in enumerate(table[3]):
            if piece is None:
                _range_cdf_piece(table, p)


def _range_cdf_at(w: float, table: tuple) -> float:
    """R(w; k) read from ``_range_cdf_table(k)`` by Clenshaw's recurrence;
    exactly 1.0 past the table's top."""
    top, h, _, pieces = table
    if w >= top:
        return 1.0
    u = w / h
    p = min(int(u), _CHEB_PIECES - 1)
    x2 = 4.0 * (u - p) - 2.0
    coeffs = pieces[p] or _range_cdf_piece(table, p)
    b1 = b2 = 0.0
    for c in coeffs[:-1]:
        b1, b2 = x2 * b1 - b2 + c, b1
    return 0.5 * x2 * b1 - b2 + coeffs[-1]


def ptukey(q: float, k: int, df: float) -> float:
    """P(Q <= q) for the studentized range with k groups and df error
    degrees of freedom.

    Returns exactly 1.0, with no quadrature, when the pairwise Bonferroni
    bound C(k,2) * P(|T_df| > q/sqrt(2)) on 1 - P is at most 2**-53: the
    exact answer rounds to 1.0 there.  For k = 2, Q = sqrt(2) |T_df|, so P
    is the exact 1 - I(df/2, 1/2, df/(df + q^2/2)).  Otherwise P is the
    integral of R(q s; k), the normal range CDF, over the scaled chi density
    of the sample standard deviation s (Copenhaver & Holland, 1988).  R is
    read from a piecewise Chebyshev table kept per k, each piece built on
    its first read or by build_range_cdf_table, which reads exactly 1.0
    past its top W_k; the s axis is split at W_k / q, so that a rise of R
    at small s, as at large q and small df, lies in a part of its own.
    The outer Gauss-Legendre panels double until two levels agree within
    PTUKEY_OUTER_ABS_TOL, and the finer level is returned; ConvergenceError
    is raised if that takes more than PTUKEY_MAX_DOUBLINGS doublings.  Above PTUKEY_LARGE_DF the result is R(q; k).
    """
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    if k < 2:
        raise ValueError(f"need k >= 2 groups, got {k}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if q == 0.0:
        return 0.0
    if math.isinf(q):
        return 1.0
    # the t tail is heavier than the normal one, so the normal bound
    # decides first whether the incomplete beta is worth evaluating
    pairs = 0.5 * k * (k - 1)
    if pairs * math.erfc(0.5 * q) <= PTUKEY_TAIL_CUT and (
        df > PTUKEY_LARGE_DF
        or pairs * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + 0.5 * q * q))
        <= PTUKEY_TAIL_CUT
    ):
        return 1.0
    if df > PTUKEY_LARGE_DF:
        return _range_cdf_at(q, _range_cdf_table(k))
    if k == 2:
        return _two_group_cdf(q, df)
    panels = 2
    previous = _ptukey_outer(q, k, df, panels)
    for _ in range(PTUKEY_MAX_DOUBLINGS):
        panels *= 2
        current = _ptukey_outer(q, k, df, panels)
        if abs(current - previous) <= PTUKEY_OUTER_ABS_TOL:
            return current
        previous = current
    raise ConvergenceError(
        f"studentized range quadrature did not stabilize for q={q}, k={k}, df={df}",
        PTUKEY_MAX_DOUBLINGS + 1,
    )


def _two_group_cdf(q: float, df: float) -> float:
    """Exact P(Q <= q) for k = 2, where Q = sqrt(2) |T_df|."""
    return 1.0 - regularized_incomplete_beta(0.5 * df, 0.5, df / (df + 0.5 * q * q))


@lru_cache(maxsize=64)  # a family's q's that split [lo, hi] add an entry each
def _outer_nodes(a: float, b: float, panels: int, df: float) -> tuple[tuple[float, float], ...]:
    """(s, weight times density) per node of the outer integral on [a, b]:
    the density of s = sqrt(chi2_df / df), c * s^(df-1) * exp(-df s^2 / 2).
    Nodes where its log is below -50 are left out: together they add less
    than 1e-20, and R needs no read there."""
    ln_const = (
        0.5 * df * math.log(df)
        - math.lgamma(0.5 * df)
        - (0.5 * df - 1.0) * math.log(2.0)
    )
    nodes = []
    for s, w in _panel_nodes(a, b, panels):
        ln_density = ln_const + (df - 1.0) * math.log(s) - 0.5 * df * s * s
        if ln_density >= -50.0:
            nodes.append((s, w * math.exp(ln_density)))
    return tuple(nodes)


def _ptukey_outer(q: float, k: int, df: float, panels: int) -> float:
    # outer integrand: density of s times the conditional range CDF
    sd = 1.0 / math.sqrt(2.0 * df)
    lo = max(0.0, 1.0 - 12.0 * sd - 1.5 / df)
    hi = 1.0 + 12.0 * sd + 4.0 / math.sqrt(df) + 3.0 / df
    table = _range_cdf_table(k)
    split = table[0] / q
    edges = (lo, split, hi) if lo < split < hi else (lo, hi)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        for s, wd in _outer_nodes(a, b, panels, df):
            total += wd * _range_cdf_at(q * s, table)
    return min(1.0, total)


def anova(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way ANOVA over observation groups.

    Degenerate input (every observation identical) yields an explicit
    degenerate result with F=0 and p=1 instead of a 0/0 NaN.
    """
    if len(groups) < 2:
        raise ValueError(f"need at least 2 groups, got {len(groups)}")
    sizes = [len(g) for g in groups]
    if min(sizes) < 2:
        raise ValueError("every group needs at least 2 observations")
    k = len(groups)
    n_total = sum(sizes)
    df_between = k - 1
    df_within = n_total - k

    sums = [float_sum(g) for g in groups]
    grand_mean = float_sum(sums) / n_total
    means = [total / n for total, n in zip(sums, sizes)]
    ss_between = float_sum(n * (m - grand_mean) ** 2 for n, m in zip(sizes, means))
    ss_within = float_sum(
        float_sum((x - m) ** 2 for x in g) for g, m in zip(groups, means)
    )
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within

    first = groups[0][0]
    if all(x == first for g in groups for x in g):
        return AnovaResult(0.0, 1.0, df_between, df_within, 0.0, 0.0, degenerate=True)
    if ms_within == 0.0:
        return AnovaResult(math.inf, 0.0, df_between, df_within, ms_between, 0.0)
    f_stat = ms_between / ms_within
    return AnovaResult(
        f_stat, f_upper_tail(f_stat, df_between, df_within),
        df_between, df_within, ms_between, ms_within,
    )


def tukey_hsd(
    groups: Sequence[Sequence[float]],
    result: AnovaResult,
    alpha: float = 0.05,
    labels: Optional[Sequence[str]] = None,
) -> list[TukeyPair]:
    """All-pairs Tukey HSD comparisons at family-wise level alpha.

    ``result`` is ``anova(groups)``, whose MSE and error df every q uses.
    Uses the Tukey-Kramer statistic q = |mean_i - mean_j| /
    sqrt((MSE/2) (1/n_i + 1/n_j)), which reduces to plain Tukey HSD for
    balanced groups, and adjusts p-values through the studentized range
    distribution.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if labels is None:
        labels = [str(i) for i in range(len(groups))]
    elif len(labels) != len(groups):
        raise ValueError("labels must match groups one-to-one")

    k = len(groups)
    means = [float_sum(g) / len(g) for g in groups]
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            diff = means[j] - means[i]
            if result.ms_within == 0.0:
                q = 0.0 if diff == 0.0 else math.inf
            else:
                se = math.sqrt(
                    0.5 * result.ms_within * (1.0 / len(groups[i]) + 1.0 / len(groups[j]))
                )
                q = abs(diff) / se
            p_adj = min(max(1.0 - ptukey(q, k, result.df_within), 0.0), 1.0)
            pairs.append(
                TukeyPair(labels[i], labels[j], diff, q, p_adj, p_adj < alpha)
            )
    return pairs
