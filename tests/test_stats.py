import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcs_cdti import stats
from lrcs_cdti.errors import ValidationError


class TestNormalizedBias:
    def test_zero_for_equal(self):
        assert stats.normalized_bias(1.3, 1.3) == 0.0

    def test_one_percent_case(self):
        # -1.02 vs -1.01 reference is a ~1% deviation
        assert stats.normalized_bias(-1.01, -1.02) == pytest.approx(0.0099, abs=1e-4)

    def test_ninety_four_percent_case(self):
        assert stats.normalized_bias(-1.01, -0.06) == pytest.approx(0.9406, abs=1e-4)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValidationError):
            stats.normalized_bias(0.0, 1.0)

    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(-10, 10).filter(lambda c: abs(c) > 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariant(self, ref, rec, c):
        if abs(ref) < 1e-6:
            return
        a = stats.normalized_bias(ref, rec)
        b = stats.normalized_bias(c * ref, c * rec)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def anova_mean_squares(data):
    """Brute-force two-way ANOVA mean squares (rows, columns, error) with
    explicit loops."""
    n, k = data.shape
    grand = sum(data[i][j] for i in range(n) for j in range(k)) / (n * k)
    row_means = [sum(data[i]) / k for i in range(n)]
    col_means = [sum(data[:, j]) / n for j in range(k)]
    ss_rows = k * sum((rm - grand) ** 2 for rm in row_means)
    ss_cols = n * sum((cm - grand) ** 2 for cm in col_means)
    ss_tot = sum((data[i][j] - grand) ** 2 for i in range(n) for j in range(k))
    ss_err = ss_tot - ss_rows - ss_cols
    ms_r = ss_rows / (n - 1)
    ms_c = ss_cols / (k - 1)
    ms_e = ss_err / ((n - 1) * (k - 1))
    return ms_r, ms_c, ms_e


def icc_oracle(data):
    n, k = data.shape
    ms_r, ms_c, ms_e = anova_mean_squares(data)
    return (ms_r - ms_e) / (ms_r + (k - 1) * ms_e + k / n * (ms_c - ms_e))


class TestIcc:
    def test_perfect_agreement(self):
        ref = np.array([1.0, 2.0, 3.0, 4.0])
        r = stats.icc_absolute_agreement(np.column_stack([ref, ref]))
        assert r == pytest.approx(1.0, abs=1e-12)
        assert stats.icc_band(r) == "Excellent"

    def test_shuffled_is_poor(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=7)
        rec = rng.permutation(ref)
        r = stats.icc_absolute_agreement(np.column_stack([ref, rec]))
        assert r < 0.4
        assert stats.icc_band(r) == "Poor"

    def test_matches_oracle_on_100_random(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            data = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3) + rng.normal()
            mine = stats.icc_absolute_agreement(data)
            assert mine == pytest.approx(icc_oracle(data), abs=1e-12)

    def test_bands(self):
        assert stats.icc_band(0.39) == "Poor"
        assert stats.icc_band(0.40) == "Fair"
        assert stats.icc_band(0.59) == "Fair"
        assert stats.icc_band(0.60) == "Good"
        assert stats.icc_band(0.74) == "Good"
        assert stats.icc_band(0.75) == "Excellent"
        assert stats.icc_band(1.0) == "Excellent"
        assert stats.icc_band(float("nan")) == "Undefined"

    def test_zero_variance_flagged(self):
        data = np.ones((4, 2))
        assert np.isnan(stats.icc_absolute_agreement(data))

    def test_needs_three_subjects(self):
        with pytest.raises(ValidationError):
            stats.icc_absolute_agreement(np.ones((2, 2)))

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 5), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_common_affine_rescale(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(6, 2))
        if np.var(data) < 1e-12:
            return
        r1 = stats.icc_absolute_agreement(data)
        r2 = stats.icc_absolute_agreement(scale * data + shift)
        assert r1 == pytest.approx(r2, abs=1e-12)


def wilcoxon_oracle(ref, rec):
    """Literal enumeration over all 2^n sign assignments."""
    diffs = np.asarray(rec, float) - np.asarray(ref, float)
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 1.0
    absd = np.abs(diffs)
    order = np.argsort(absd)
    ranks = np.empty(n)
    i = 0
    srt = absd[order]
    while i < n:
        j = i
        while j + 1 < n and srt[j + 1] == srt[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1
        i = j + 1
    w_obs = ranks[diffs > 0].sum()
    ws = []
    for signs in itertools.product([0, 1], repeat=n):
        ws.append(sum(r for r, s in zip(ranks, signs) if s))
    ws = np.array(ws)
    lower = np.count_nonzero(ws <= w_obs + 1e-12) / len(ws)
    upper = np.count_nonzero(ws >= w_obs - 1e-12) / len(ws)
    return min(1.0, 2 * min(lower, upper))


class TestWilcoxon:
    def test_unanimous_n6(self):
        ref = np.zeros(6)
        rec = np.arange(1.0, 7.0)
        p = stats.wilcoxon_signed_rank(ref, rec)
        assert p == pytest.approx(2 / 64)
        assert p == pytest.approx(0.03125)

    def test_unanimous_n7(self):
        ref = np.zeros(7)
        rec = np.arange(1.0, 8.0)
        p = stats.wilcoxon_signed_rank(ref, rec)
        assert p == pytest.approx(2 / 128)
        assert p == pytest.approx(0.015625)

    def test_symmetric_pairs_give_one(self):
        ref = np.array([0.0, 0.0])
        rec = np.array([0.7, -0.7])
        assert stats.wilcoxon_signed_rank(ref, rec) == 1.0

    def test_all_zero_differences(self):
        assert stats.wilcoxon_signed_rank(np.ones(5), np.ones(5)) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            ref = rng.normal(size=n)
            rec = ref + rng.normal(size=n)
            if rng.uniform() < 0.3:   # provoke ties
                rec = ref + np.round(rng.normal(size=n))
            mine = stats.wilcoxon_signed_rank(ref, rec)
            assert mine == pytest.approx(wilcoxon_oracle(ref, rec), abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 50), st.floats(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_increasing_affine_transform(self, seed, scale, shift):
        # rank invariance of the signed-rank statistic holds for strictly
        # increasing affine maps (general monotone maps can permute the
        # magnitude ranks of the differences)
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=6)
        rec = ref + rng.normal(size=6)
        p1 = stats.wilcoxon_signed_rank(ref, rec)
        p2 = stats.wilcoxon_signed_rank(scale * ref + shift, scale * rec + shift)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_unanimous_sign_p_invariant_under_monotone_transform(self):
        # with unanimous signs the p-value depends only on n, so any
        # strictly increasing transform preserves it
        ref = np.arange(1.0, 7.0)
        rec = ref + np.linspace(0.5, 3.0, 6)
        p1 = stats.wilcoxon_signed_rank(ref, rec)
        p2 = stats.wilcoxon_signed_rank(np.exp(ref), np.exp(rec))
        assert p1 == p2 == pytest.approx(2 / 64)


class TestRegionalPmap:
    def test_identical_all_nonsignificant(self):
        vals = np.tile(np.arange(1.0, 8.0), (16, 1))
        pmap = stats.regional_pmap(vals, vals)
        assert len(pmap) == 16
        assert all(not sig for _, sig in pmap)

    def test_biased_segment_flagged(self):
        rng = np.random.default_rng(9)
        ref = rng.normal(size=(16, 7))
        rec = ref + rng.normal(scale=1e-6, size=(16, 7)) * rng.choice([-1, 1], size=(16, 7))
        rec[4] = ref[4] + 1.0
        pmap = stats.regional_pmap(ref, rec)
        assert pmap[4][0] == pytest.approx(2 / 128)
        assert pmap[4][1]

    def test_missing_data_rejected(self):
        ref = np.full((16, 5), np.nan)
        with pytest.raises(ValidationError, match="missing"):
            stats.regional_pmap(ref, ref)

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            stats.regional_pmap(np.ones((15, 5)), np.ones((15, 5)))
