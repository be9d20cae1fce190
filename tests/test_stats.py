import math
import random

import pytest

from tracewatt import stats
from tracewatt.stats import (
    anova,
    f_upper_tail,
    float_sum,
    normal_cdf,
    ptukey,
    regularized_incomplete_beta,
    tukey_hsd,
)

# Reference values computed with scipy 1.15 (stats.studentized_range.cdf,
# stats.f.sf, stats.tukey_hsd) before this module was written; frozen here
# so the suite does not depend on scipy.
PTUKEY_REFERENCE = {
    (0.5, 2, 5): 0.2619073981060859,
    (1.0, 2, 5): 0.48891591956971947,
    (2.0, 2, 10): 0.8123301291303988,
    (3.0, 2, 10): 0.9401096755744426,
    (2.0, 3, 10): 0.6294553249645047,
    (3.0, 3, 10): 0.8650165848104374,
    (2.5, 4, 20): 0.6827970026274168,
    (3.5, 6, 60): 0.8518790360206172,
    (3.2, 5, 8): 0.7507258881722855,
    (4.0, 14, 126): 0.775670380631839,
    (3.63, 14, 5726): 0.637798385741689,
    (1.5, 3, 3): 0.40422741947476243,
    (2.0, 2, 1): 0.6081734479693928,
    (5.0, 10, 30): 0.9625770171515469,
    # scipy 1.17, at small df with large q or k, where the outer integral
    # converges slowly
    (20.0, 3, 1): 0.9326304847758619,
    (30.0, 3, 2): 0.9959565430227058,
    (50.0, 3, 5): 0.9999991901924874,
    (50.0, 8, 5): 0.9999964029456353,
    (5.0, 20, 5): 0.7164571424712579,
    (20.0, 30, 10): 0.9999916614533731,
    (50.0, 30, 5): 0.9999859101209109,
}

# Frozen scipy 1.17 values at df = 1, where the outer axis needs its
# seventh doubling; at large q and small df, where the range CDF rises at
# small s; and near 1 at moderate df, where an inner tolerance of 1e-6
# left errors of 1e-8.  (2000, 2, 2) is the exact 1 - I(1, 1/2, 2/(2 + 2e6)).
PTUKEY_EXTREME_REFERENCE = {
    (40.0, 30, 1): 0.9186595413517228,
    (50.0, 30, 1): 0.9348833613708168,
    (50.0, 20, 1): 0.9404606764825929,
    (1000.0, 30, 1): 0.9967402351908754,
    (2000.0, 2, 2): 0.999999500000375,
    (10.0, 20, 50): 0.9999991743904891,
    (10.0, 20, 88): 0.9999999349132498,
    (10.0, 20, 200): 0.9999999952354698,
}

# Frozen scipy 1.17 betainc(a, 1/2, x) at x = df / (df + q^2 / 2), df = 2a,
# q in {1, 2}: large shape parameters, where ln B(a, b) from lgamma
# differences lost 1e-9.
BETAINC_LARGE_A_REFERENCE = {
    (5e5, 0.99999950000025): 0.4795002869377675,
    (5e5, 0.999998000004): 0.15729951837803532,
    (5e6, 0.9999999500000025): 0.479500138770985,
    (5e6, 0.99999980000004): 0.1572992381442081,
}

F_SF_REFERENCE = {
    (8.0, 1, 2): 0.10557280900008414,
    (2.5, 3, 12): 0.10915471239500632,
    (5.0, 4, 40): 0.002305586391966497,
    (0.3, 2, 8): 0.7488005297763748,
    (12.0, 5, 6): 0.004435534929855029,
    (0.05, 1, 1): 0.8599513039068979,
    (3.1, 13, 5726): 0.00012847679807176518,
}

# Unequal group sizes (Tukey-Kramer); p_adj frozen from scipy.stats.tukey_hsd.
TK_GROUPS = [
    [10.483983, 9.946307, 10.466786, 10.202275, 9.311355, 8.522215],
    [11.69257, 10.351089, 8.884226, 9.290673],
    [13.149468, 13.57923, 12.697877, 14.862099, 12.888077],
    [8.965702, 10.432202, 9.073073, 10.43434, 11.515572, 10.326526, 11.390495],
]
TK_REFERENCE_P = {
    ("0", "1"): 0.9815345584,
    ("0", "2"): 0.0000408349,
    ("0", "3"): 0.8034463291,
    ("1", "2"): 0.0002972692,
    ("1", "3"): 0.9750388198,
    ("2", "3"): 0.0001527878,
}


class TestAnova:
    def test_identical_groups_give_zero_f(self):
        result = anova([[1.0, 2.0, 3.0]] * 3)
        assert result.F == 0.0
        assert result.p == 1.0
        assert not result.degenerate

    def test_hand_computed_decomposition(self):
        result = anova([[1.0, 2.0], [3.0, 4.0]])
        assert result.F == 8.0
        assert result.ms_between == 4.0
        assert result.ms_within == 0.5
        assert (result.df_between, result.df_within) == (1, 2)
        # oracle: F(1, nu) = t^2(nu); closed-form t CDF for nu=2 gives
        # P(T <= t) = 1/2 + t / (2 sqrt(t^2 + 2))
        t = math.sqrt(8.0)
        p_oracle = 2.0 * (1.0 - (0.5 + t / (2.0 * math.sqrt(t * t + 2.0))))
        assert result.p == pytest.approx(p_oracle, abs=1e-12)
        assert result.p == pytest.approx(0.1055728, abs=1e-4)

    def test_constant_grand_set_is_degenerate(self):
        result = anova([[5.0, 5.0], [5.0, 5.0]])
        assert result.degenerate
        assert result.F == 0.0
        assert result.p == 1.0

    def test_zero_within_variance_with_shift(self):
        result = anova([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(result.F)
        assert result.p == 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            anova([[1.0, 2.0]])
        with pytest.raises(ValueError):
            anova([[1.0, 2.0], [3.0]])

    def test_sum_of_squares_identity(self):
        rng = random.Random(404)
        for _ in range(100):
            groups = [
                [rng.gauss(rng.uniform(-5, 5), 2.0) for _ in range(rng.randrange(2, 9))]
                for _ in range(rng.randrange(2, 6))
            ]
            result = anova(groups)
            everything = [x for g in groups for x in g]
            grand = sum(everything) / len(everything)
            sst = sum((x - grand) ** 2 for x in everything)
            ssb = result.ms_between * result.df_between
            ssw = result.ms_within * result.df_within
            assert ssb + ssw == pytest.approx(sst, rel=1e-9)

    def test_shift_and_scale_invariance(self):
        rng = random.Random(17)
        groups = [[rng.gauss(i, 1.0) for _ in range(6)] for i in range(3)]
        base = anova(groups).F
        shifted = anova([[x + 1234.5 for x in g] for g in groups]).F
        scaled = anova([[x * -3.25 for x in g] for g in groups]).F
        assert shifted == pytest.approx(base, rel=1e-9)
        assert scaled == pytest.approx(base, rel=1e-9)


def _f_density(x: float, d1: int, d2: int) -> float:
    log_num = (
        0.5 * d1 * math.log(d1) + 0.5 * d2 * math.log(d2)
        + (0.5 * d1 - 1.0) * math.log(x)
        - 0.5 * (d1 + d2) * math.log(d2 + d1 * x)
    )
    log_beta = (
        math.lgamma(0.5 * d1) + math.lgamma(0.5 * d2) - math.lgamma(0.5 * (d1 + d2))
    )
    return math.exp(log_num - log_beta)


def _adaptive_simpson(f, a, b, tol, depth=40):
    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)), mid

    def recurse(lo, hi, whole, level):
        mid = 0.5 * (lo + hi)
        left, _ = simpson(lo, mid)
        right, _ = simpson(mid, hi)
        if level == 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, left, level - 1) + recurse(mid, hi, right, level - 1)

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, depth)


def _f_upper_tail_quadrature(f_stat: float, d1: int, d2: int) -> float:
    # integrate the density from 0 to F with an x = u^2 substitution to
    # absorb the d1=1 endpoint singularity, then take the complement
    def integrand(u):
        if u == 0.0:
            return 0.0
        return _f_density(u * u, d1, d2) * 2.0 * u

    lower = _adaptive_simpson(integrand, 0.0, math.sqrt(f_stat), 1e-12)
    return 1.0 - lower


class TestFUpperTail:
    def test_zero_statistic(self):
        assert f_upper_tail(0.0, 3, 7) == 1.0

    def test_huge_statistic_tail_vanishes(self):
        assert f_upper_tail(1e12, 1, 2) < 1e-5

    @pytest.mark.parametrize("d", [1, 2, 5, 11])
    def test_reflection_symmetry_at_one(self, d):
        assert f_upper_tail(1.0, d, d) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_reference_grid(self):
        for (f_stat, d1, d2), expected in F_SF_REFERENCE.items():
            assert f_upper_tail(f_stat, d1, d2) == pytest.approx(expected, abs=1e-10)

    def test_quadrature_oracle_agreement(self):
        grid = [
            (0.5, 1, 1), (2.0, 1, 4), (0.8, 2, 2), (3.0, 2, 10), (1.5, 3, 3),
            (5.0, 3, 12), (0.3, 4, 4), (2.5, 4, 20), (8.0, 5, 5), (1.1, 5, 30),
            (0.7, 6, 6), (4.0, 6, 18), (2.2, 7, 7), (0.9, 8, 24), (6.0, 9, 9),
            (1.7, 10, 10), (3.3, 11, 33), (0.4, 12, 12), (2.8, 13, 26), (1.05, 14, 42),
        ]
        assert len(grid) == 20
        for f_stat, d1, d2 in grid:
            oracle = _f_upper_tail_quadrature(f_stat, d1, d2)
            assert f_upper_tail(f_stat, d1, d2) == pytest.approx(oracle, abs=1e-8)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            f_upper_tail(-1.0, 2, 2)
        with pytest.raises(ValueError):
            f_upper_tail(1.0, 0, 2)

    def test_incomplete_beta_at_large_shape_parameter(self):
        for (a, x), expected in BETAINC_LARGE_A_REFERENCE.items():
            assert regularized_incomplete_beta(a, 0.5, x) == pytest.approx(expected, rel=1e-13)

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


def _eager_range_cdf_table(k):
    """The range CDF table with every piece built at once from one list of
    points, as stats built it before its pieces were built on first read."""
    top = 0.0
    while k * math.erfc(top / (2.0 * stats._SQRT2)) >= stats.PTUKEY_TAIL_CUT:
        top += 0.125
    h = top / stats._CHEB_PIECES
    n = stats._CHEB_NODES
    angles = [math.pi * (j + 0.5) / n for j in range(n)]
    ws = [(p + 0.5 + 0.5 * math.cos(a)) * h for p in range(stats._CHEB_PIECES) for a in angles]
    nodes = [
        (z, weight * stats._INV_SQRT_2PI * math.exp(-0.5 * z * z), normal_cdf(z))
        for z, weight in stats._panel_nodes(-stats._Z_LIM, stats._Z_LIM, stats._RANGE_PANELS)
    ]
    values = []
    for w in ws:
        total = 0.0
        for z, fw, cdf in nodes:
            d = cdf - 0.5 * math.erfc((w - z) / stats._SQRT2)
            if d > 0.0:
                total += fw * d ** (k - 1)
        values.append(min(1.0, k * total))
    pieces = []
    for p in range(stats._CHEB_PIECES):
        f = values[p * n:(p + 1) * n]
        pieces.append(tuple(
            (2.0 - (m == 0)) / n * float_sum(v * math.cos(m * a) for v, a in zip(f, angles))
            for m in reversed(range(n))
        ))
    return top, h, tuple(pieces)


class TestPtukey:
    def test_zero_and_infinite_q(self):
        assert ptukey(0.0, 4, 10) == 0.0
        assert ptukey(math.inf, 4, 10) == 1.0

    def test_frozen_reference_grid(self):
        for (q, k, df), expected in PTUKEY_REFERENCE.items():
            assert ptukey(q, k, df) == pytest.approx(expected, abs=1e-9)

    def test_extreme_arguments_get_a_value(self):
        for (q, k, df), expected in PTUKEY_EXTREME_REFERENCE.items():
            assert ptukey(q, k, df) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("df", [1, 2, 5, 88, 978, 24000, 26000, 1e5, 1e6])
    def test_two_groups_match_the_exact_t_tail(self, df):
        # for k=2, Q = sqrt(2) |T_df|: P(Q <= q) = 1 - I(df/2, 1/2, df / (df + q^2 / 2))
        for q in (0.5, 1.0, 2.0, 3.0, 5.0):
            exact = 1.0 - regularized_incomplete_beta(0.5 * df, 0.5, df / (df + 0.5 * q * q))
            assert ptukey(q, 2, df) == pytest.approx(exact, abs=1e-8)

    def test_tail_bound_cuts_only_where_the_quadrature_rounds_to_one(self, monkeypatch):
        # Bisect for the q where C(k,2) P(|T_df| > q / sqrt 2) crosses 2**-53.
        # Just above it ptukey returns 1.0 with no quadrature; just below it
        # the quadrature runs, and P is furthest below 1 of all cut points.
        cut = 2.0**-53

        def bound(q, k, df):
            pairs = 0.5 * k * (k - 1)
            if df > stats.PTUKEY_LARGE_DF:
                return pairs * math.erfc(0.5 * q)
            return pairs * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + 0.5 * q * q))

        # past the cut, k = 2 takes the exact two-group value and larger k
        # read the range CDF table
        calls = []
        for name in ("_range_cdf_at", "_two_group_cdf"):
            spied = getattr(stats, name)
            monkeypatch.setattr(
                stats, name, lambda *args, f=spied: calls.append(args) or f(*args)
            )
        for k in (2, 3, 8, 30):
            for df in (1, 2, 5, 10, 88, 978, 10000, 3e7):
                lo, hi = 1.0, 2.0
                while bound(hi, k, df) > cut:
                    lo, hi = hi, 2.0 * hi
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if bound(mid, k, df) > cut:
                        lo = mid
                    else:
                        hi = mid
                calls.clear()
                assert ptukey(hi, k, df) == 1.0
                assert not calls
                # the quadrature's own floor near 1 is about 1e-14, above 2**-52
                assert ptukey(lo, k, df) >= 1.0 - 1e-13
                assert calls

    @pytest.mark.parametrize("k", [3, 8, 30, 60])
    def test_table_matches_the_range_quadrature_at_doubled_panels(self, k):
        table = stats._range_cdf_table(k)
        rng = random.Random(k)
        ws = [rng.uniform(0.0, table[0]) for _ in range(2000)]
        finer = stats._range_cdf(ws, k, 2 * stats._RANGE_PANELS)
        assert max(abs(stats._range_cdf_at(w, table) - r) for w, r in zip(ws, finer)) <= 1e-13

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @pytest.mark.parametrize("k", [3, 6, 8, 30])
    def test_pieces_built_on_first_read_match_the_table_built_at_once(self, k, order):
        stats._range_cdf_table.cache_clear()
        table = stats._range_cdf_table(k)
        top, h, _, pieces = table
        first_reads = list(reversed(range(stats._CHEB_PIECES)))
        if order == "shuffled":
            random.Random(k).shuffle(first_reads)
        for p in first_reads:
            assert pieces[p] is None
            stats._range_cdf_at((p + 0.5) * h, table)
        eager_top, eager_h, eager_pieces = _eager_range_cdf_table(k)
        assert (top.hex(), h.hex()) == (eager_top.hex(), eager_h.hex())
        assert [[c.hex() for c in piece] for piece in pieces] == [
            [c.hex() for c in piece] for piece in eager_pieces
        ]

    def test_table_reads_one_past_its_top(self):
        for k in (2, 3, 8, 30):
            table = stats._range_cdf_table(k)
            assert k * math.erfc(table[0] / (2.0 * math.sqrt(2.0))) < 2.0**-53
            assert stats._range_cdf_at(table[0], table) == 1.0

    def test_large_df_matches_normal_range_identity(self):
        # for k=2: P(Q <= q) = P(|Z1 - Z2| <= q) = 2 Phi(q / sqrt 2) - 1
        for q in (0.5, 1.0, 2.0, 3.0):
            expected = 2.0 * normal_cdf(q / math.sqrt(2.0)) - 1.0
            assert ptukey(q, 2, 1e6) == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_q(self):
        for df in (3, 25, 1e7):
            values = [ptukey(q, 4, df) for q in [0.1 * i for i in range(1, 80)]]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_decreasing_in_k(self):
        for q in (1.5, 3.0, 4.5):
            values = [ptukey(q, k, 20) for k in range(2, 15)]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ptukey(-0.1, 3, 5)
        with pytest.raises(ValueError):
            ptukey(1.0, 1, 5)
        with pytest.raises(ValueError):
            ptukey(1.0, 3, 0.5)


GROUPS_2X2 = [[1.0, 2.0], [3.0, 4.0]]


class TestTukeyHsd:
    def test_equal_means_not_significant(self):
        groups = [[1.0, 2.0, 3.0]] * 4
        pairs = tukey_hsd(groups, anova(groups))
        assert len(pairs) == 6
        for pair in pairs:
            assert pair.q == 0.0
            assert pair.p_adj == 1.0
            assert not pair.significant

    def test_pair_count_for_fourteen_groups(self):
        rng = random.Random(3)
        groups = [[rng.gauss(0, 1) for _ in range(3)] for _ in range(14)]
        assert len(tukey_hsd(groups, anova(groups))) == 91

    def test_spec_dataset_significance_pattern(self):
        groups = [
            [0.0, 0.0, 0.0, 0.0],
            [10.0, 10.0, 10.0, 10.0],
            [0.1, -0.1, 0.05, -0.05],
        ]
        pairs = {(p.group_a, p.group_b): p for p in tukey_hsd(groups, anova(groups), alpha=0.05)}
        assert pairs[("0", "1")].significant
        assert not pairs[("0", "2")].significant
        assert pairs[("1", "2")].significant

    def test_reference_table_unequal_sizes(self):
        pairs = {(p.group_a, p.group_b): p for p in tukey_hsd(TK_GROUPS, anova(TK_GROUPS))}
        for key, expected_p in TK_REFERENCE_P.items():
            assert pairs[key].p_adj == pytest.approx(expected_p, abs=1e-3)
            assert pairs[key].significant == (expected_p < 0.05)

    def test_zero_mse_with_distinct_means(self):
        groups = [[1.0, 1.0], [2.0, 2.0]]
        pairs = tukey_hsd(groups, anova(groups))
        assert math.isinf(pairs[0].q)
        assert pairs[0].p_adj == 0.0
        assert pairs[0].significant

    def test_mean_diff_direction_and_labels(self):
        groups = [[1.0, 1.2], [3.0, 3.2]]
        pairs = tukey_hsd(groups, anova(groups), labels=["old", "new"])
        assert pairs[0].group_a == "old"
        assert pairs[0].group_b == "new"
        assert pairs[0].mean_diff == pytest.approx(2.0)

    def test_family_of_the_same_k_reuses_the_range_table(self, monkeypatch):
        calls = []
        range_cdf = stats._range_cdf
        monkeypatch.setattr(
            stats, "_range_cdf", lambda *args: calls.append(args) or range_cdf(*args)
        )
        rng = random.Random(11)
        groups = [[rng.gauss(0.3 * i, 1.0) for _ in range(4)] for i in range(5)]
        tukey_hsd(groups, anova(groups))
        calls.clear()
        shifted = [[x + 0.1 * i for x in g] for i, g in enumerate(groups)]
        pairs = tukey_hsd(shifted, anova(shifted))
        assert any(0.0 < p.p_adj < 1.0 for p in pairs)
        assert not calls

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tukey_hsd(GROUPS_2X2, anova(GROUPS_2X2), labels=["only-one"])

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            tukey_hsd(GROUPS_2X2, anova(GROUPS_2X2), alpha=1.5)
