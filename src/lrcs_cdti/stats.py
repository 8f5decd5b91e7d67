"""Evaluation battery: the statistics ``stats.csv`` reports per method
and R, each a plain number (normalized bias, two-way absolute-agreement
ICC with NaN where undefined, exact Wilcoxon signed-rank p), the ICC's
qualitative band, and the 16-segment regional p-map.

The Wilcoxon p-value is exact: it enumerates the full sign-assignment
distribution of the rank-sum statistic (dynamic programming over the
doubled midranks, identical to summing over all 2^n assignments), so the
unanimous-sign cases give p = 2/2^n exactly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ValidationError

ICC_BANDS = ((0.75, "Excellent"), (0.60, "Good"), (0.40, "Fair"))
# a regional p-map segment is significant below this p
SIGNIFICANCE = 0.05


def normalized_bias(h_ref: float, h_rec: float) -> float:
    """beta = |(h_rec - h_ref) / h_ref|."""
    if h_ref == 0:
        raise ValidationError("normalized bias undefined for h_ref = 0")
    return abs((h_rec - h_ref) / h_ref)


def icc_band(r: float) -> str:
    """The qualitative band of an ICC; ``Undefined`` for NaN."""
    if np.isnan(r):
        return "Undefined"
    for threshold, name in ICC_BANDS:
        if r >= threshold:
            return name
    return "Poor"


def icc_absolute_agreement(pairs: np.ndarray) -> float:
    """Single-measure absolute-agreement ICC from a two-way ANOVA.

    ``pairs`` is (n_subjects, k_raters); here k = 2 (reference,
    reconstruction).  r = (MS_R - MS_E) /
    (MS_R + (k-1) MS_E + (k/n)(MS_C - MS_E)).  No variance, or a zero
    denominator, gives NaN.
    """
    data = np.asarray(pairs, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValidationError(f"need an (n, k>=2) table, got shape {data.shape}")
    n, k = data.shape
    if n < 3:
        raise ValidationError(f"need >= 3 subjects, got {n}")
    grand = data.mean()
    row_means = data.mean(axis=1)
    col_means = data.mean(axis=0)
    ss_total = float(((data - grand) ** 2).sum())
    ss_rows = float(k * ((row_means - grand) ** 2).sum())
    ss_cols = float(n * ((col_means - grand) ** 2).sum())
    ss_err = ss_total - ss_rows - ss_cols
    if ss_total == 0:
        return float("nan")
    ms_r = ss_rows / (n - 1)
    ms_c = ss_cols / (k - 1)
    ms_e = ss_err / ((n - 1) * (k - 1))
    denom = ms_r + (k - 1) * ms_e + (k / n) * (ms_c - ms_e)
    if denom == 0:
        return float("nan")
    return float((ms_r - ms_e) / denom)


def _midranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with midrank ties; a NaN ties with nothing."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True,
                                   equal_nan=False)
    # a tie group ends at rank cumsum(counts) and spans counts ranks
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def wilcoxon_signed_rank(ref: np.ndarray, rec: np.ndarray) -> float:
    """Exact two-sided Wilcoxon signed-rank p on paired values.

    Zero differences are discarded; ties get midranks.  The two-sided p
    doubles the smaller exact tail of the sign-assignment distribution
    and caps at 1; with no nonzero difference it is 1.
    """
    ref = np.asarray(ref, dtype=float)
    rec = np.asarray(rec, dtype=float)
    if ref.shape != rec.shape or ref.ndim != 1 or ref.size < 1:
        raise ValidationError(f"need equal-length 1-D pairs, got {ref.shape}, {rec.shape}")
    diffs = rec - ref
    diffs = diffs[diffs != 0]
    if diffs.size == 0:
        return 1.0
    n = diffs.size
    ranks = _midranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())

    # exact distribution over the 2^n sign assignments; midranks are
    # half-integers, so doubled ranks are integers
    ranks2 = np.rint(2 * ranks).astype(np.int64)
    total = int(ranks2.sum())
    counts = np.zeros(total + 1, dtype=object)
    counts[0] = 1
    for r2 in ranks2:
        shifted = np.zeros_like(counts)
        shifted[r2:] = counts[:len(counts) - r2]
        counts = counts + shifted
    w2 = int(np.rint(2 * w_plus))
    denom = 1 << n
    lower = int(sum(counts[:w2 + 1]))
    upper = int(sum(counts[w2:]))
    p = 2 * Fraction(min(lower, upper), denom)
    return float(min(p, Fraction(1)))


def regional_pmap(ref_segments: np.ndarray,
                  rec_segments: np.ndarray) -> list[tuple[float, bool]]:
    """Per-AHA-segment Wilcoxon across subjects: 16 (p, significant) rows,
    significant below ``SIGNIFICANCE``.

    Inputs are (16, n_subjects) tables of regional values.
    """
    ref_segments = np.asarray(ref_segments, dtype=float)
    rec_segments = np.asarray(rec_segments, dtype=float)
    if ref_segments.shape != rec_segments.shape or ref_segments.shape[0] != 16:
        raise ValidationError(
            f"need (16, n_subjects) tables, got {ref_segments.shape}, "
            f"{rec_segments.shape}")
    if not (np.isfinite(ref_segments).all() and np.isfinite(rec_segments).all()):
        raise ValidationError("missing segment data in regional tables")
    out = []
    for s in range(16):
        p = wilcoxon_signed_rank(ref_segments[s], rec_segments[s])
        out.append((p, p < SIGNIFICANCE))
    return out


def summarize(ref_values: np.ndarray, rec_values: np.ndarray) -> dict:
    """The stats.csv columns of one group of paired subjects: the mean
    and sample std of the normalized bias, the ICC and its band, and the
    Wilcoxon p."""
    ref_values = np.asarray(ref_values, dtype=float)
    rec_values = np.asarray(rec_values, dtype=float)
    biases = np.array([normalized_bias(a, b) for a, b in zip(ref_values, rec_values)])
    icc = icc_absolute_agreement(np.column_stack([ref_values, rec_values]))
    return {"bias_mean": float(biases.mean()),
            "bias_std": float(biases.std(ddof=1)) if len(biases) > 1 else 0.0,
            "icc": icc, "icc_band": icc_band(icc),
            "p": wilcoxon_signed_rank(ref_values, rec_values)}
