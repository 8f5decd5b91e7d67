import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcs_cdti import transforms as tr
from lrcs_cdti.errors import ValidationError

RNG = np.random.default_rng(7)


def levels_per_axis(spec):
    """How many levels of the spec's plan transform each axis."""
    return tuple(sum(any(a == ax for a, _ in axes) for _, axes in spec.plan)
                 for ax in range(3))


def reference_analysis_1d(x, h, g):
    """Dense-matrix periodic filter bank, built independently of the
    production code path (explicit loops over output taps)."""
    n = len(x)
    half = n // 2
    out = np.zeros(n, dtype=complex)
    for j in range(half):
        a = 0.0
        d = 0.0
        for m in range(8):
            a += h[m] * x[(2 * j + m) % n]
            d += g[m] * x[(2 * j + m) % n]
        out[j] = a
        out[half + j] = d
    return out


def reference_series_forward(matrix, dims, levels=4):
    """Multi-level transform of each column with explicit loops: per
    level, per active axis and per line of the low-corner block, the
    single-level reference above."""
    depth = []
    for n in dims:
        d = 0
        while d < levels and n % 2 == 0:
            n //= 2
            d += 1
        depth.append(d)
    cols = []
    for col in np.asarray(matrix).T:
        vol = col.reshape(dims, order="F").astype(complex)
        cur = list(dims)
        for level in range(max(depth)):
            active = [ax for ax in range(3) if level < depth[ax]]
            for ax in active:
                lines = np.moveaxis(vol[:cur[0], :cur[1], :cur[2]], ax, -1)
                for idx in np.ndindex(lines.shape[:-1]):
                    lines[idx] = reference_analysis_1d(lines[idx].copy(),
                                                       tr.SYM4_DEC_LO, tr.SYM4_DEC_HI)
            for ax in active:
                cur[ax] //= 2
        cols.append(vol.ravel(order="F"))
    return np.stack(cols, axis=1)


class TestWavelet:
    def test_filter_table_orthonormal(self):
        h = tr.SYM4_DEC_LO
        assert abs(h.sum() - np.sqrt(2)) < 1e-14
        assert abs((h * h).sum() - 1) < 1e-14
        for m in (1, 2, 3):
            assert abs((h[:-2 * m] * h[2 * m:]).sum()) < 1e-14
        assert abs(tr.SYM4_DEC_HI.sum()) < 1e-14

    def test_levels_per_axis(self):
        spec = tr.WaveletSpec(dims=(64, 64, 4))
        assert levels_per_axis(spec) == (4, 4, 2)
        assert levels_per_axis(tr.WaveletSpec(dims=(48, 6, 1))) == (4, 1, 0)

    def test_zero_maps_to_zero(self):
        spec = tr.WaveletSpec(dims=(16, 16, 2))
        out = tr.series_forward(np.zeros((16 * 16 * 2, 1)), spec)
        assert np.all(out == 0)

    def test_perfect_reconstruction_and_parseval(self):
        spec = tr.WaveletSpec(dims=(64, 64, 4))
        x = RNG.normal(size=(64 * 64 * 4, 1)) + 1j * RNG.normal(size=(64 * 64 * 4, 1))
        w = tr.series_forward(x, spec)
        assert abs(np.linalg.norm(w) - np.linalg.norm(x)) < 1e-12 * np.linalg.norm(x)
        back = tr.series_adjoint(w, spec)
        assert np.linalg.norm(back - x) < 1e-12 * np.linalg.norm(x)

    def test_adjoint_equals_inverse(self):
        spec = tr.WaveletSpec(dims=(16, 8, 4))
        x = RNG.normal(size=(16 * 8 * 4, 1)) + 1j * RNG.normal(size=(16 * 8 * 4, 1))
        y = RNG.normal(size=(16 * 8 * 4, 1)) + 1j * RNG.normal(size=(16 * 8 * 4, 1))
        lhs = np.vdot(tr.series_forward(x, spec), y)
        rhs = np.vdot(x, tr.series_adjoint(y, spec))
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_constant_volume_zero_details(self):
        spec = tr.WaveletSpec(dims=(64, 64, 4))
        w = tr.series_forward(np.full((64 * 64 * 4, 1), 2.5), spec)
        w = w.reshape(spec.dims, order="F")
        approx = tuple(slice(0, d // 2 ** lv)
                       for d, lv in zip(spec.dims, levels_per_axis(spec)))
        detail = w.copy()
        detail[approx] = 0.0
        assert np.abs(detail).max() < 1e-10
        assert np.linalg.norm(w[approx]) > 0.999 * np.linalg.norm(w)

    def test_against_reference_filter_bank(self, monkeypatch):
        # single level along one axis of a 1-D signal reduces to the
        # reference convolution
        n = 16
        x = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        monkeypatch.setattr(tr, "WAVELET_LEVELS", 1)
        spec = tr.WaveletSpec(dims=(n, 1, 1))
        mine = tr.series_forward(x.reshape(n, 1), spec).ravel()
        ref = reference_analysis_1d(x, tr.SYM4_DEC_LO, tr.SYM4_DEC_HI)
        np.testing.assert_allclose(mine, ref, atol=1e-14)

    def test_zero_sized_axis_rejected(self):
        with pytest.raises(ValidationError, match="zero-sized"):
            tr.WaveletSpec(dims=(0, 4, 4))

    def test_series_roundtrip(self):
        spec = tr.WaveletSpec(dims=(16, 16, 2))
        x = RNG.normal(size=(16 * 16 * 2, 5)) + 1j * RNG.normal(size=(16 * 16 * 2, 5))
        w = tr.series_forward(x, spec)
        back = tr.series_adjoint(w, spec)
        assert np.linalg.norm(back - x) < 1e-12 * np.linalg.norm(x)


class TestFilterBank:
    def series(self, dims, k=3, complex_=True):
        m = int(np.prod(dims))
        x = RNG.normal(size=(m, k))
        return x + 1j * RNG.normal(size=(m, k)) if complex_ else x

    @pytest.mark.parametrize("complex_", [True, False])
    @pytest.mark.parametrize("dims", [(16, 8, 4), (12, 6, 3), (8, 2, 1), (4, 4, 2)])
    def test_matches_loop_reference(self, dims, complex_):
        # (8, 2, 1) and (4, 4, 2) have axes of extent 2 and 4, where the
        # 8-tap filter wraps around the axis more than once
        x = self.series(dims, complex_=complex_)
        mine = tr.series_forward(x, tr.WaveletSpec(dims=dims))
        ref = reference_series_forward(x, dims)
        np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("dtype, out", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.complex64, np.complex64), (np.complex128, np.complex128),
        (np.int32, np.float64), (np.int64, np.float64), (np.float16, np.float64)])
    def test_precision_follows_input(self, dtype, out):
        spec = tr.WaveletSpec(dims=(8, 4, 2))
        complex_ = np.issubdtype(dtype, np.complexfloating)
        x = (10 * self.series(spec.dims, complex_=complex_)).astype(dtype)
        assert tr.series_forward(x, spec).dtype == out
        assert tr.series_adjoint(x, spec).dtype == out
        assert tr.group_shrink(x, 1.0).dtype == out

    @pytest.mark.parametrize("complex_", [True, False])
    @pytest.mark.parametrize("dims", [(16, 8, 4), (12, 6, 3), (8, 2, 1), (4, 4, 2)])
    @pytest.mark.parametrize("fn", [tr.series_forward, tr.series_adjoint])
    def test_single_precision_matches_double(self, fn, dims, complex_):
        # float32 pairs and a float32 W: measured <= 1.17e-7 relative in
        # norm (about one float32 epsilon) on these and 64x64x4 grids
        single = self.series(dims, k=5, complex_=complex_).astype(
            np.complex64 if complex_ else np.float32)
        out = fn(single, tr.WaveletSpec(dims=dims))
        ref = fn(single.astype(np.complex128 if complex_ else np.float64),
                 tr.WaveletSpec(dims=dims))
        assert out.dtype == single.dtype
        assert np.linalg.norm(out - ref) <= 2.5e-7 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dims", [(16, 8, 4), (12, 6, 3)])
    def test_single_precision_adjoint_dot_product(self, dims):
        # <Psi x, y> = <x, Psi^H y> in complex64, to float32 rounding of
        # ||x|| ||y|| (measured <= 1.8e-8 on six grids up to 64x64x4)
        spec = tr.WaveletSpec(dims=dims)
        x = self.series(dims, k=5).astype(np.complex64)
        y = self.series(dims, k=5).astype(np.complex64)
        lhs = np.vdot(tr.series_forward(x, spec), y)
        rhs = np.vdot(x, tr.series_adjoint(y, spec))
        assert abs(lhs - rhs) <= 5e-8 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_column_equals_volume_transform(self):
        # each column is transformed as the volume it is, alone
        spec = tr.WaveletSpec(dims=(16, 8, 4))
        x = self.series(spec.dims, k=4)
        w = tr.series_forward(x, spec)
        for k in range(x.shape[1]):
            vol = tr.series_forward(x[:, k:k + 1], spec)
            np.testing.assert_allclose(w[:, k:k + 1], vol,
                                       rtol=0, atol=1e-13 * np.abs(vol).max())

    @pytest.mark.parametrize("fn", [tr.series_forward, tr.series_adjoint])
    def test_non_contiguous_input(self, fn):
        spec = tr.WaveletSpec(dims=(16, 8, 4))
        big = self.series(spec.dims, k=6)
        strided = big[:, ::2]
        expected = fn(np.ascontiguousarray(strided), spec)
        np.testing.assert_array_equal(fn(strided, spec), expected)
        np.testing.assert_array_equal(fn(np.asfortranarray(strided), spec), expected)

    @pytest.mark.parametrize("fn", [tr.series_forward, tr.series_adjoint])
    def test_input_not_modified(self, fn):
        spec = tr.WaveletSpec(dims=(16, 8, 4))
        x = self.series(spec.dims)
        before = x.copy()
        fn(x, spec)
        np.testing.assert_array_equal(x, before)

    def test_series_adjoint_dot_product(self):
        spec = tr.WaveletSpec(dims=(12, 6, 3))
        x = self.series(spec.dims, k=5)
        y = self.series(spec.dims, k=5)
        lhs = np.vdot(tr.series_forward(x, spec), y)
        rhs = np.vdot(x, tr.series_adjoint(y, spec))
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    @pytest.mark.parametrize("fn", [tr.series_forward, tr.series_adjoint])
    @pytest.mark.parametrize("shape", [(256, 4), (512,), (512, 2, 2)])
    def test_wrong_shape_rejected(self, fn, shape):
        spec = tr.WaveletSpec(dims=(16, 16, 2))
        with pytest.raises(ValidationError, match="512 rows"):
            fn(np.ones(shape), spec)


class TestGroupShrink:
    def test_below_threshold_zeroes_group(self):
        z = np.array([[0.3, 0.4]])  # norm 0.5
        assert np.all(tr.group_shrink(z, 1.0) == 0.0)

    def test_scalar_soft_threshold(self):
        assert tr.group_shrink(np.array([[2.0]]), 1.0)[0, 0] == pytest.approx(1.0)
        assert tr.group_shrink(np.array([[-2.0]]), 1.0)[0, 0] == pytest.approx(-1.0)

    def test_34_group(self):
        out = tr.group_shrink(np.array([[3.0, 4.0]]), 1.0)
        np.testing.assert_allclose(out, [[2.4, 3.2]], atol=1e-14)

    def test_zero_alpha_identity(self):
        z = RNG.normal(size=(5, 3)) + 1j * RNG.normal(size=(5, 3))
        np.testing.assert_array_equal(tr.group_shrink(z, 0.0), z)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            tr.group_shrink(np.ones((1, 1)), -0.1)

    def test_zero_group_stays_zero(self):
        z = np.zeros((2, 3))
        assert np.all(tr.group_shrink(z, 1.0) == 0.0)

    def prox_objective(self, g, z, lam, rho):
        return lam * np.linalg.norm(g) + 0.5 * rho * np.linalg.norm(z - g) ** 2

    def test_prox_beats_random_perturbations(self):
        # the returned point minimizes lam*||g|| + rho/2 ||z - g||^2
        rng = np.random.default_rng(11)
        for _ in range(20):
            size = rng.integers(1, 8)
            z = rng.normal(size=size) + 1j * rng.normal(size=size)
            lam = float(rng.uniform(0.01, 2.0))
            rho = float(rng.uniform(0.1, 5.0))
            alpha = lam / rho
            g = tr.group_shrink(z[None, :], alpha)[0]
            base = self.prox_objective(g, z, lam, rho)
            scales = rng.uniform(1e-3, 1.0, size=(500, 1))
            perturbs = (rng.normal(size=(500, size))
                        + 1j * rng.normal(size=(500, size))) * scales
            objs = (lam * np.linalg.norm(g + perturbs, axis=1)
                    + 0.5 * rho * np.linalg.norm(z - g - perturbs, axis=1) ** 2)
            assert (objs >= base - 1e-12).all()

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_nonexpansive(self, seed, alpha):
        rng = np.random.default_rng(seed)
        z1 = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        z2 = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        d_out = np.linalg.norm(tr.group_shrink(z1, alpha) - tr.group_shrink(z2, alpha))
        assert d_out <= np.linalg.norm(z1 - z2) + 1e-12
