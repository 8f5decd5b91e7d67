import gc
import re
import weakref

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.ndimage import gaussian_filter

from lrcs_cdti import datamodel as dm
from lrcs_cdti import encoding as enc
from lrcs_cdti import phantom as ph
from lrcs_cdti import recon
from lrcs_cdti.errors import ValidationError
import solves

# The operators compute in complex64 (EncodingModel.dtype, float32 eps
# 1.19e-7).  Tolerances against double-precision references, each a
# few times the largest spread measured on these tests' inputs:
# one operator application, relative in norm (measured <= 1.64e-7)
OP_RTOL = 5e-7
# <A x, y> - <x, A* y> over ||A x|| ||y||, A x simulated in complex128
# (measured <= 5.4e-9)
DOT_RTOL = 3e-8
# |Im <x, A*A x>| / |<x, A*A x>| (measured <= 4.1e-9)
HERMITIAN_RTOL = 2e-8
# A* against the same steps with scipy.fft's 2-D transform, relative in
# norm: numpy scales each axis of a complex64 pass by its own 1/sqrt(n),
# scipy the whole transform by 1/sqrt(ny nx) (measured <= 1.5e-7)
SCIPY_ADJ_RTOL = 5e-7
# coil_combine x of noisy data on the R=1 model: ||A*A x - A*d|| over
# ||A*d||, both operators in complex64 (measured 0.94 eps)
NORMAL_EQ_RTOL = 4 * np.finfo(np.float32).eps
# coil_combine against the lambda = 0 cs solve (complex64 CG to CG_TOL),
# relative in norm (measured 2.2e-6)
CG_LSQ_RTOL = 1e-5


@pytest.fixture(scope="module")
def small_phantom():
    cfg = ph.PhantomConfig(grid=(32, 32, 2), r_endo=6, r_epi=12, seed=3)
    return cfg, ph.build_phantom(cfg)


def uniform_coil(dims):
    return dm.CoilMaps(np.ones((1,) + dims, dtype=np.complex128))


def reference_forward(model, x):
    """A(x) in double precision: the complex128 k-space simulation
    (``coil_kspace``) with the model's coils and phase, and the kept
    entries of its grid in the packed order of ``extract_samples`` (whose
    ``KSpaceData`` holds complex64), none of the model's complex64
    fields."""
    series = dm.CasoratiSeries(x, model.spatial_dims, model.mask.column_labels)
    kgrid = enc.coil_kspace(series, model.coils, model.phase)
    return kgrid[enc._bool_grid_mask(model.mask, model.coils.n_coils, kgrid.shape[-1])]


def fft2c(grid):
    """The centered 2-D DFT of each (ny, nx) plane of an (N, nz, ny, nx)
    grid, as :func:`encoding.coil_kspace` of its series on one unit coil
    of the grid's dtype: the coil product is exact, so this is the DFT
    that ``coil_kspace`` runs."""
    n_cols, nz, ny, nx = grid.shape
    labels = dm.make_labels([0, 1000], [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                        (0.0, 0.0, 1.0)][:n_cols - 1])
    series = dm.CasoratiSeries(grid.reshape(n_cols, -1).T, (nx, ny, nz), labels)
    coil = dm.CoilMaps(np.ones((1, nx, ny, nz), dtype=grid.dtype))
    return enc.coil_kspace(series, coil)[0]


class TestSamplingMask:
    def labels(self):
        return ph.PhantomConfig().column_labels

    def test_r1_keeps_everything(self):
        mask = enc.make_sampling_mask(64, 2, self.labels(), R=1, seed=0)
        assert mask.kept.all()
        assert mask.r_true == 1.0

    def test_r_true_formula_at_r4(self):
        # 12 DW + 1 b0 protocol: R_true = 13 R / (R + 12) = 3.25 at R = 4
        mask = enc.make_sampling_mask(64, 4, self.labels(), R=4, seed=0)
        assert mask.r_true == pytest.approx(13 * 4 / (4 + 12))
        assert mask.r_true == pytest.approx(3.25)

    def test_r6_line_budget_and_center(self):
        mask = enc.make_sampling_mask(64, 2, self.labels(), R=6, seed=42)
        b0 = [lab.is_b0 for lab in mask.column_labels]
        for k, is_b0 in enumerate(b0):
            for z in range(2):
                col = mask.kept[:, z, k]
                if is_b0:
                    assert col.all()
                else:
                    assert col.sum() == int(np.ceil(64 / 6)) == 11
                    assert col[30:34].all()   # forced center block

    def test_r_true_within_one_line_of_formula(self):
        labels = self.labels()
        for R in (2, 4, 6, 8):
            mask = enc.make_sampling_mask(64, 4, labels, R=R, seed=1)
            dw = [k for k, lab in enumerate(labels) if not lab.is_b0]
            kept_formula = 64 / R
            for k in dw:
                assert abs(mask.kept[:, 0, k].sum() - kept_formula) <= 1.0

    def test_patterns_distinct_per_slice_and_column(self):
        labels = self.labels()
        mask = enc.make_sampling_mask(64, 4, labels, R=4, seed=7)
        dw = [k for k, lab in enumerate(labels) if not lab.is_b0]
        patterns = {tuple(mask.kept[:, z, k]) for k in dw for z in range(4)}
        assert len(patterns) == len(dw) * 4

    def test_reproducible_from_seed(self):
        labels = self.labels()
        a = enc.make_sampling_mask(64, 4, labels, R=4, seed=9)
        b = enc.make_sampling_mask(64, 4, labels, R=4, seed=9)
        c = enc.make_sampling_mask(64, 4, labels, R=4, seed=10)
        assert np.array_equal(a.kept, b.kept)
        assert not np.array_equal(a.kept, c.kept)

    def test_center_budget_error(self):
        with pytest.raises(ValidationError, match="cannot honor center lines"):
            enc.make_sampling_mask(64, 1, self.labels(), R=32, seed=0)

    def test_b0_always_full(self):
        labels = self.labels()
        mask = enc.make_sampling_mask(64, 2, labels, R=8, seed=5)
        for k, lab in enumerate(labels):
            if lab.is_b0:
                assert mask.kept[:, :, k].all()


class TestForwardAdjoint:
    def test_impulse_gives_flat_kspace(self):
        nx = ny = 16
        labels = dm.make_labels([0], [])
        coils = uniform_coil((nx, ny, 1))
        mask = enc.make_sampling_mask(ny, 1, labels, R=1, seed=0)
        model = enc.EncodingModel(coils, mask, None)
        x = np.zeros((nx * ny, 1), dtype=complex)
        vol = x.reshape((nx, ny, 1, 1), order="F")
        vol[nx // 2, ny // 2, 0, 0] = 1.0
        d = reference_forward(model, x)
        np.testing.assert_allclose(np.abs(d), 1 / np.sqrt(nx * ny), atol=1e-14)
        np.testing.assert_allclose(d.imag, 0, atol=1e-14)

    def test_full_mask_unitary_roundtrip(self):
        nx, ny, nz = 16, 16, 2
        labels = dm.make_labels([0], [])
        coils = uniform_coil((nx, ny, nz))
        mask = enc.make_sampling_mask(ny, nz, labels, R=1, seed=0)
        model = enc.EncodingModel(coils, mask, None)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(nx * ny * nz, 1)) + 1j * rng.normal(size=(nx * ny * nz, 1))
        back = enc.adjoint_matrix(model, reference_forward(model, x))
        assert back.dtype == np.complex64
        assert np.linalg.norm(back - x) < OP_RTOL * np.linalg.norm(x)

    def test_zero_roundtrip(self, small_phantom):
        cfg, gt = small_phantom
        labels = gt.clean_series.column_labels
        mask = enc.make_sampling_mask(cfg.grid[1], cfg.grid[2], labels, R=2, seed=1)
        model = enc.EncodingModel(gt.coils, mask, gt.phase)
        x = np.zeros((model.n_voxels, model.n_columns), dtype=complex)
        assert np.all(enc.adjoint_matrix(model, reference_forward(model, x)) == 0)

    def test_adjoint_dot_product(self, small_phantom):
        cfg, gt = small_phantom
        labels = gt.clean_series.column_labels
        rng = np.random.default_rng(5)
        mask = enc.make_sampling_mask(cfg.grid[1], cfg.grid[2], labels, R=3, seed=2)
        model = enc.EncodingModel(gt.coils, mask, gt.phase)
        m, n = model.n_voxels, model.n_columns
        for _ in range(5):
            x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            ax = reference_forward(model, x)
            y = rng.normal(size=ax.shape) + 1j * rng.normal(size=ax.shape)
            lhs = np.vdot(ax, y)
            rhs = np.vdot(x, enc.adjoint_matrix(model, y))
            assert abs(lhs - rhs) <= DOT_RTOL * np.linalg.norm(ax) * np.linalg.norm(y)

    def test_single_sample_is_weighted_exponential(self):
        nx = ny = 8
        labels = dm.make_labels([0], [])
        coils = uniform_coil((nx, ny, 1))
        mask = enc.make_sampling_mask(ny, 1, labels, R=1, seed=0)
        model = enc.EncodingModel(coils, mask, None)
        d = np.zeros(nx * ny, dtype=complex)
        d[0] = 1.0
        img = enc.adjoint_matrix(model, d)
        np.testing.assert_allclose(np.abs(img), 1 / np.sqrt(nx * ny), atol=1e-14)

    def test_normal_equals_forward_adjoint(self, small_phantom):
        cfg, gt = small_phantom
        labels = gt.clean_series.column_labels
        mask = enc.make_sampling_mask(cfg.grid[1], cfg.grid[2], labels, R=2, seed=6)
        model = enc.EncodingModel(gt.coils, mask, gt.phase)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(model.n_voxels, model.n_columns)) * (1 + 0j)
        want = enc.adjoint_matrix(model, reference_forward(model, x))
        got = enc.normal_matrix(model, x)
        assert np.linalg.norm(got - want) <= OP_RTOL * np.linalg.norm(want)

    def test_dim_mismatch(self, small_phantom):
        cfg, gt = small_phantom
        labels = gt.clean_series.column_labels
        mask = enc.make_sampling_mask(16, 2, labels[:1], R=1, seed=0)
        with pytest.raises(ValidationError):
            enc.EncodingModel(gt.coils, mask, None)

    def test_with_phase_of_another_shape_is_a_named_error(self):
        model, _ = random_model(6, 8)
        free = enc.EncodingModel(model.coils, model.mask)
        with pytest.raises(ValidationError, match=re.escape(
                "phase map shape (95, 4) does not match (M=96, N=4)")):
            enc.with_phase(free, dm.PhaseMap(model.phase.values[1:]))
        phased = enc.with_phase(free, model.phase)
        assert free.phase is None and free._phase_t is None
        assert np.array_equal(phased._phase_t, model._phase_t)


@pytest.fixture(scope="module")
def noisy_full(small_phantom):
    """The small phantom's noisy full grid, and coil maps estimated from
    it and zeroed on the first 6 readout rows, so that the maps' support
    (given as Casorati rows) is not the whole grid."""
    cfg, gt = small_phantom
    kgrid = ph.add_noise(enc.coil_kspace(gt.clean_series, gt.coils, gt.phase),
                         cfg.snr, ph.mean_s0(gt), seed=cfg.seed)
    maps = enc.estimate_coil_maps(
        enc.ifft2c(kgrid[:, 0]).transpose(0, 3, 2, 1)).maps.copy()
    maps[:, :6] = 0
    support = ((np.abs(maps) ** 2).sum(axis=0) > 0).ravel(order="F")
    return kgrid, dm.CoilMaps(maps), support


class TestCoilCombine:
    def test_inverts_coil_kspace_on_the_support(self, small_phantom, noisy_full):
        _, gt = small_phantom
        _, coils, support = noisy_full
        x = enc.coil_combine(enc.coil_kspace(gt.clean_series, coils), coils)
        assert x.dtype == np.complex128 and x.shape == gt.clean_series.data.shape
        want = gt.clean_series.data[support]
        assert np.linalg.norm(x[support] - want) <= 1e-12 * np.linalg.norm(want)

    def test_zero_off_the_support(self, noisy_full):
        kgrid, coils, support = noisy_full
        assert 0 < support.sum() < support.size
        x = enc.coil_combine(kgrid, coils)
        assert np.all(x[~support] == 0) and np.all(x[support] != 0)

    def r1_problem(self, small_phantom, noisy_full):
        cfg, gt = small_phantom
        kgrid, coils, _ = noisy_full
        mask = enc.make_sampling_mask(cfg.grid[1], cfg.grid[2],
                                      gt.clean_series.column_labels, R=1, seed=0)
        return enc.extract_samples(kgrid, mask), enc.EncodingModel(coils, mask, None)

    def test_solves_the_normal_equations(self, small_phantom, noisy_full):
        d, model = self.r1_problem(small_phantom, noisy_full)
        x = enc.coil_combine(noisy_full[0], model.coils)
        adj = enc.adjoint_matrix(model, d.samples)
        residual = enc.normal_matrix(model, x) - adj
        assert np.linalg.norm(residual) <= NORMAL_EQ_RTOL * np.linalg.norm(adj)

    def test_agrees_with_the_least_squares_solve(self, small_phantom, noisy_full):
        d, model = self.r1_problem(small_phantom, noisy_full)
        x = enc.coil_combine(noisy_full[0], model.coils)
        res = solves.cs(d, model, recon.SolverConfig(lam=0.0, cg_max_iters=200))
        assert res.report.cg_iters[0] < 200    # stopped at CG_TOL
        assert np.linalg.norm(res.series.data - x) <= CG_LSQ_RTOL * np.linalg.norm(x)


def dense_centered_dft(n):
    """Unitary DFT matrix with DC at index n//2, entry by entry."""
    c = n // 2
    k = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    return np.exp(-2j * np.pi * (k - c) * (x - c) / n) / np.sqrt(n)


def random_model(nx, ny, nz=2, n_coils=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = dm.make_labels([0, 500], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    shape = (n_coils, nx, ny, nz)
    coils = dm.CoilMaps(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    kept = rng.random((ny, nz, len(labels))) < 0.5
    kept[:, :, 0] = True
    mask = dm.SamplingMask(kept, 2.0, seed, labels)
    phase = dm.PhaseMap(np.exp(1j * rng.normal(size=(nx * ny * nz, len(labels)))))
    return enc.EncodingModel(coils, mask, phase), rng


# (nx, ny): even, odd and mixed in-plane sizes
IN_PLANE = [(8, 6), (7, 9), (5, 8), (6, 7), (9, 5)]


class TestCenteredDft:
    @pytest.mark.parametrize("nx, ny", IN_PLANE)
    def test_fft2c_and_ifft2c_match_dense_matrix(self, nx, ny):
        rng = np.random.default_rng(nx * ny)
        grid = rng.normal(size=(2, 3, ny, nx)) + 1j * rng.normal(size=(2, 3, ny, nx))
        fy, fx = dense_centered_dft(ny), dense_centered_dft(nx)
        ref = np.einsum("ky,...yx,lx->...kl", fy, grid, fx)
        ref_inv = np.einsum("yk,...yx,xl->...kl", fy.conj(), grid, fx.conj())
        for got, want in ((fft2c(grid), ref), (enc.ifft2c(grid), ref_inv)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("nx, ny", IN_PLANE)
    def test_operators_match_dense_matrix(self, nx, ny):
        model, rng = random_model(nx, ny, seed=nx + 10 * ny)
        nz, n_cols = model.spatial_dims[2], model.n_columns
        fy, fx = dense_centered_dft(ny), dense_centered_dft(nx)
        maps = model.coils.maps.transpose(0, 3, 2, 1)          # (C, nz, ny, nx)
        phase = model.phase.values.T.reshape(n_cols, nz, ny, nx)
        kept = model.mask.kept.transpose(2, 1, 0)[None, :, :, :, None]
        grid_mask = np.broadcast_to(kept, (model.coils.n_coils, n_cols, nz, ny, nx))

        def ref_forward(x):
            vols = phase * x.T.reshape(n_cols, nz, ny, nx)
            coil_vols = maps[:, None] * vols[None]
            return np.einsum("ky,cnzyx,lx->cnzkl", fy, coil_vols, fx)[grid_mask]

        def ref_adjoint(samples):
            grid = np.zeros(grid_mask.shape, dtype=complex)
            grid[grid_mask] = samples
            imgs = np.einsum("yk,cnzyx,xl->cnzkl", fy.conj(), grid, fx.conj())
            vols = np.conj(phase) * (np.conj(maps)[:, None] * imgs).sum(axis=0)
            return vols.reshape(n_cols, -1).T

        shape = (model.n_voxels, n_cols)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        y = ref_forward(x)
        # the simulation is A in double precision
        got = reference_forward(model, x)
        assert np.linalg.norm(got - y) <= 1e-12 * np.linalg.norm(y)
        for got, ref in ((enc.adjoint_matrix(model, y), ref_adjoint(y)),
                         (enc.normal_matrix(model, x), ref_adjoint(y))):
            assert got.dtype == np.complex64
            assert np.linalg.norm(got - ref) <= OP_RTOL * np.linalg.norm(ref)

    def test_adjoint_dot_product_odd_grid(self):
        model, rng = random_model(9, 7, nz=3, seed=11)
        m, n = model.n_voxels, model.n_columns
        for _ in range(3):
            x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            ax = reference_forward(model, x)
            y = rng.normal(size=ax.shape) + 1j * rng.normal(size=ax.shape)
            lhs = np.vdot(ax, y)
            rhs = np.vdot(x, enc.adjoint_matrix(model, y))
            assert abs(lhs - rhs) <= DOT_RTOL * np.linalg.norm(ax) * np.linalg.norm(y)


def dense_normal(model):
    """Double-precision A^H A built column by column from
    :func:`reference_forward`, acting on the C-order flattening of an
    (M, N) matrix."""
    shape = (model.n_voxels, model.n_columns)
    eye = np.eye(shape[0] * shape[1], dtype=complex)
    a = np.stack([reference_forward(model, e.reshape(shape)) for e in eye], axis=1)
    return a.conj().T @ a


def normal_case(name):
    """Small models for the normal-operator tests: (model, rng)."""
    labels = dm.make_labels([0, 500], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    nx, ny = {"even": (8, 8), "odd": (7, 9), "r1": (8, 8), "phase": (7, 8),
              "center4": (6, 16), "gap": (6, 8)}[name]
    nz = 2
    rng = np.random.default_rng(len(name) + nx * ny)
    shape = (3, nx, ny, nz)
    coils = dm.CoilMaps(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if name == "center4":
        # every undersampled (slice, column) keeps the same 4 center lines
        kept = np.zeros((ny, nz, len(labels)), dtype=bool)
        kept[:, :, 0] = True
        kept[ny // 2 - 2:ny // 2 + 2] = True
        mask = dm.SamplingMask(kept, 4.0, 2, labels)
    else:
        kept = rng.random((ny, nz, len(labels))) < 0.4
        kept[:, :, 0] = True        # fully kept b=0 column
        kept[:, 0, 1] = True        # undersampled column with one full slice
        kept[:, 1, 2] = False       # and one with an empty slice
        if name == "r1":
            kept[:] = True
        if name == "gap":
            kept[:, :, 2] = True    # a fully kept column between two others
        mask = dm.SamplingMask(kept, 2.0, 0, labels)
    phase = None
    if name in ("phase", "gap"):
        phase = dm.PhaseMap(np.exp(1j * rng.normal(size=(nx * ny * nz, len(labels)))))
    return enc.EncodingModel(coils, mask, phase), rng


NORMAL_CASES = ["even", "odd", "r1", "phase", "center4"]


class TestNormalOperator:
    @pytest.mark.parametrize("name", NORMAL_CASES)
    def test_matches_dense_normal_matrix(self, name):
        model, rng = normal_case(name)
        shape = (model.n_voxels, model.n_columns)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = (dense_normal(model) @ x.ravel()).reshape(shape)
        got = enc.normal_matrix(model, x)
        assert got.dtype == np.complex64
        # measured 4.3e-8 (r1) to 9.0e-8 (phase), 7.6e-8 on the 8x8x2 case
        assert np.linalg.norm(got - want) <= OP_RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize("n_cols, column_bytes, blocks", [
        (12, 64 * 64 * 4 * 8, [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 12)]),
        (12, 32 * 32 * 3 * 8, [(0, 6), (6, 12)]),
        (5, 100 * 1024, [(0, 2), (2, 5)]),
        (3, 1024 * 1024, [(0, 1), (1, 2), (2, 3)]),     # columns over budget
        (0, 1024, [])])
    def test_column_blocks_split_evenly(self, n_cols, column_bytes, blocks):
        assert enc._column_blocks(n_cols, column_bytes) == blocks

    @pytest.mark.parametrize("name", ["even", "phase", "gap"])
    @pytest.mark.parametrize("n_blocks", [2, 3])
    def test_column_blocks_match_dense_normal_matrix(self, name, n_blocks,
                                                     monkeypatch):
        # these grids fit in one block at the default budget; 2 blocks
        # split the 3 columns after the fully kept b=0 one 1 + 2; "gap"
        # has a fully kept column between undersampled ones, which runs
        # through its kept rows, all of the line DFT
        model, rng = normal_case(name)
        shape = (model.n_voxels, model.n_columns)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        one_block = enc.normal_matrix(model, x)
        n_part = model.n_columns - model._n_full
        column_bytes = model.n_voxels * model.dtype.itemsize
        assert len(enc._column_blocks(n_part, column_bytes)) == 1
        monkeypatch.setattr(enc, "NORMAL_BLOCK_BYTES",
                            -(-n_part * column_bytes // n_blocks))
        assert len(enc._column_blocks(n_part, column_bytes)) == min(n_blocks, n_part)
        got = enc.normal_matrix(model, x)
        want = (dense_normal(model) @ x.ravel()).reshape(shape)
        assert np.linalg.norm(got - want) <= OP_RTOL * np.linalg.norm(want)
        # each entry sees the same operations in the same order
        np.testing.assert_array_equal(got, one_block)

    @pytest.mark.parametrize("name, n_blocks", [("phase", 1), ("gap", 1),
                                                ("even", 2), ("phase", 2)])
    def test_shift_is_added_per_block(self, name, n_blocks, monkeypatch):
        # n_blocks = 2 splits the 3 columns after the b=0 one unevenly, 1 + 2
        model, rng = normal_case(name)
        shape = (model.n_voxels, model.n_columns)
        x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
        n_part = model.n_columns - model._n_full
        column_bytes = model.n_voxels * model.dtype.itemsize
        monkeypatch.setattr(enc, "NORMAL_BLOCK_BYTES",
                            -(-n_part * column_bytes // n_blocks))
        assert len(enc._column_blocks(n_part, column_bytes)) == n_blocks
        shift = 0.37
        got = enc.normal_matrix(model, x, shift)
        assert got.dtype == np.complex64
        np.testing.assert_array_equal(got, enc.normal_matrix(model, x) + shift * x)
        dense = dense_normal(model) + shift * np.eye(x.size)
        want = (dense @ x.astype(complex).ravel()).reshape(shape)
        assert np.linalg.norm(got - want) <= OP_RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["even", "gap"])
    @pytest.mark.parametrize("phased", [False, True])
    @pytest.mark.parametrize("shift", [0.0, 0.37])
    def test_product_written_into_out(self, name, phased, shift):
        # "gap" runs a fully kept column through its kept rows; the
        # product in ``out`` is the allocating call's, bit for bit, and
        # the result is the series view of ``out``
        model, rng = normal_case(name)
        shape = (model.n_voxels, model.n_columns)
        phase = dm.PhaseMap(np.exp(1j * rng.normal(size=shape))) if phased else None
        model = enc.EncodingModel(model.coils, model.mask, phase)
        x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
        nx, ny, nz = model.spatial_dims
        out = np.full((model.n_columns, nz, ny, nx), np.nan, dtype=model.dtype)
        got = enc.normal_matrix(model, x, shift, out=out)
        assert got.shape == shape and got.base is out
        np.testing.assert_array_equal(got, enc.normal_matrix(model, x, shift))

    @pytest.mark.parametrize("out", [
        np.empty((4, 2, 8, 8), dtype=np.complex128),      # not the model's dtype
        np.empty((3, 2, 8, 8), dtype=np.complex64),       # one column short
        np.empty((4, 2, 8, 8), dtype=np.complex64, order="F")])
    def test_out_of_another_layout_is_rejected(self, out):
        model, rng = normal_case("even")
        x = np.zeros((model.n_voxels, model.n_columns), dtype=np.complex64)
        assert model.spatial_dims == (8, 8, 2) and model.n_columns == 4
        with pytest.raises(ValidationError, match="normal_matrix output"):
            enc.normal_matrix(model, x, out=out)

    def test_out_that_is_the_input_is_rejected(self):
        # the blocks read the input after earlier blocks wrote the output
        model, _ = normal_case("even")
        nx, ny, nz = model.spatial_dims
        grid = np.ones((model.n_columns, nz, ny, nx), dtype=np.complex64)
        with pytest.raises(ValidationError, match="apart from the input"):
            enc.normal_matrix(model, grid.reshape(model.n_columns, -1).T, out=grid)

    def test_full_sampling_is_coil_sum_of_squares(self):
        model, rng = normal_case("r1")
        assert model._n_full == model.n_columns
        shape = (model.n_voxels, model.n_columns)
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sos = (np.abs(model.coils.maps) ** 2).sum(axis=0).reshape(-1, order="F")
        want = sos[:, None] * x
        got = enc.normal_matrix(model, x)
        assert np.linalg.norm(got - want) <= OP_RTOL * np.linalg.norm(want)

    def test_mixed_mask_splits_columns(self):
        model, _ = normal_case("even")
        assert model._n_full == 1
        assert model._rows.shape[:3] == (3, 2, 8)     # one slice of column 1 is full

    def test_only_leading_full_columns_skip_the_rows(self):
        # "gap"'s fully kept column 2 follows an undersampled one, so its
        # rows are all ny of them
        model, _ = normal_case("gap")
        assert model.mask.kept[:, :, 2].all()
        assert model._n_full == 1
        assert model._rows.shape[:3] == (3, 2, 8)

    @pytest.mark.parametrize("name", NORMAL_CASES)
    def test_hermitian_positive_semidefinite(self, name):
        model, rng = normal_case(name)
        shape = (model.n_voxels, model.n_columns)
        for _ in range(3):
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            q = np.vdot(x, enc.normal_matrix(model, x))
            assert abs(q.imag) <= HERMITIAN_RTOL * abs(q)
            assert q.real >= 0


def scipy_fft2_inplace(grid, inverse=False):
    """The unitary 2-D transform of ``encoding._fft2_inplace`` by scipy.fft."""
    fft = sfft.ifftn if inverse else sfft.fftn
    grid[...] = fft(grid, axes=(-2, -1), norm="ortho")


# in-plane sizes (ny, nx) of the numpy.fft checks: even, odd and mixed
FFT_GRIDS = [(64, 64), (32, 32), (20, 24), (31, 33), (30, 30), (8, 8), (5, 7)]


class TestScipyOracle:
    """numpy.fft and the numpy Gaussian against the scipy routines they
    replaced; scipy is the oracle here only."""

    @pytest.mark.parametrize("ny, nx", FFT_GRIDS)
    def test_fft2c_and_ifft2c_are_bit_equal_to_scipy(self, ny, nx):
        rng = np.random.default_rng(ny * nx)
        grid = rng.normal(size=(3, 2, ny, nx)) + 1j * rng.normal(size=(3, 2, ny, nx))
        a, kb = enc._centering_ramps(ny, nx)
        want = kb * sfft.fftn(a * grid, axes=(-2, -1), norm="ortho")
        want_inv = np.conj(a) * sfft.ifftn(np.conj(kb) * grid, axes=(-2, -1),
                                           norm="ortho")
        assert np.array_equal(fft2c(grid), want)
        assert np.array_equal(enc.ifft2c(grid), want_inv)

    @pytest.mark.parametrize("nx, ny", [(64, 64), *IN_PLANE])
    def test_adjoint_matches_scipy(self, nx, ny, monkeypatch):
        model, rng = random_model(nx, ny, seed=nx + ny)
        n = model.coils.n_coils * nx * np.count_nonzero(model.mask.kept)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = enc.adjoint_matrix(model, y)
        monkeypatch.setattr(enc, "_fft2_inplace", scipy_fft2_inplace)
        want = enc.adjoint_matrix(model, y)
        if (nx, ny) == (64, 64):
            # both per-axis factors are 1/8, exact in float32
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= SCIPY_ADJ_RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize("shape", [(4, 64, 64, 4), (4, 32, 32, 3), (2, 20, 24, 3),
                                       (3, 7, 9, 2), (2, 9, 5, 3), (2, 1, 6, 1),
                                       (1, 1, 1, 1)])
    @pytest.mark.parametrize("sigma", [2.0, 0.7])
    def test_gaussian_is_bit_equal_to_scipy(self, shape, sigma):
        # (2, 9, 5, 3): an in-plane axis shorter than the radius (8 at
        # sigma 2), so the edge extension reaches past the far border
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        want = gaussian_filter(x, sigma=(0.0, sigma, sigma, 0.0), mode="nearest")
        assert np.array_equal(enc._gaussian_smooth(x, sigma, axes=(1, 2)), want)

    def test_coil_maps_on_phantom_are_bit_equal_to_scipy(self, monkeypatch):
        gt = ph.build_phantom(ph.PhantomConfig(seed=3))
        b0 = enc.ifft2c(enc.coil_kspace(gt.clean_series, gt.coils, None)[:, 0])
        b0 = b0.transpose(0, 3, 2, 1)
        assert b0.shape == (4, 64, 64, 4)
        got = enc.estimate_coil_maps(b0)

        def scipy_smooth(x, sigma, axes):
            sig = [sigma if axis in axes else 0.0 for axis in range(x.ndim)]
            return gaussian_filter(x, sigma=sig, mode="nearest")

        monkeypatch.setattr(enc, "_gaussian_smooth", scipy_smooth)
        want = enc.estimate_coil_maps(b0)
        assert np.array_equal(got.maps, want.maps)

    def test_precision_of_each_transform(self):
        # numpy.fft keeps complex64 from numpy 2.0 (1.x computes it in
        # complex128), so A* stays in the model's precision
        model, rng = random_model(8, 6)
        n = model.coils.n_coils * 8 * np.count_nonzero(model.mask.kept)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert enc.adjoint_matrix(model, y).dtype == np.complex64
        assert enc.adjoint_matrix(model, y.astype(np.complex64)).dtype == np.complex64
        grid = rng.normal(size=(2, 1, 6, 8)) + 1j * rng.normal(size=(2, 1, 6, 8))
        for g in (grid, grid.astype(np.complex64)):
            assert fft2c(g).dtype == np.complex128
            assert enc.ifft2c(g).dtype == np.complex128


class TestCoilMapEstimation:
    def test_rss_consistency_on_phantom(self):
        # desk-scale grid: the fixed smoothing width is calibrated there
        cfg = ph.PhantomConfig(seed=3)
        gt = ph.build_phantom(cfg)
        kfull = enc.coil_kspace(gt.clean_series, gt.coils, None)
        b0 = enc.ifft2c(kfull[:, 0]).transpose(0, 3, 2, 1)
        est = enc.estimate_coil_maps(b0)
        combined = (np.conj(est.maps) * b0).sum(axis=0)
        rss = np.sqrt((np.abs(b0) ** 2).sum(axis=0))
        inside = gt.myocardium_mask
        rel = np.abs(np.abs(combined[inside]) - rss[inside]) / rss[inside]
        assert rel.max() < 0.02

    def test_uniform_coil_gives_ones(self):
        imgs = np.ones((1, 8, 8, 1), dtype=complex)
        est = enc.estimate_coil_maps(imgs)
        np.testing.assert_allclose(est.maps, 1.0, atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError, match="all-zero"):
            enc.estimate_coil_maps(np.zeros((2, 4, 4, 1), dtype=complex))

    def test_degenerate_support_warns_and_zeroes(self):
        imgs = np.zeros((2, 32, 32, 1), dtype=complex)
        imgs[:, 0, 0, 0] = 1.0   # single hot voxel, support < 1%
        with pytest.warns(UserWarning, match="support"):
            est = enc.estimate_coil_maps(imgs)
        assert np.all(est.maps == 0)


def two_step_coil_kspace(series, coils, phase):
    """:func:`encoding.coil_kspace` as two grids: the coil product, then a
    centered DFT that makes its own, ``kb * fft2(a * product)``."""
    nx, ny, nz = coils.spatial_dims
    vols = series.data.T.reshape(-1, nz, ny, nx)
    if phase is not None:
        vols = vols * phase.values.T.reshape(-1, nz, ny, nx)
    product = coils.maps.transpose(0, 3, 2, 1)[:, None] * vols[None]
    a, kb = enc._centering_ramps(ny, nx)
    out = a * product
    enc._fft2_inplace(out)
    return kb * out


class TestCoilKspace:
    @pytest.mark.parametrize("grid, r_endo, r_epi", [((32, 32, 2), 6, 12),
                                                     ((31, 29, 3), 5, 10)])
    @pytest.mark.parametrize("phased", [True, False])
    def test_in_place_simulation_is_bit_equal_to_two_grids(self, grid, r_endo,
                                                           r_epi, phased):
        gt = ph.build_phantom(ph.PhantomConfig(grid=grid, r_endo=r_endo,
                                               r_epi=r_epi, seed=5))
        phase = gt.phase if phased else None
        got = enc.coil_kspace(gt.clean_series, gt.coils, phase)
        assert got.dtype == np.complex128
        assert np.array_equal(got, two_step_coil_kspace(gt.clean_series, gt.coils,
                                                        phase))


class TestOneCoilAtATime:
    @pytest.mark.parametrize("grid, r_endo, r_epi", [((32, 32, 2), 6, 12),
                                                     ((31, 29, 3), 5, 10)])
    def test_a_coils_grid_is_its_slice_of_the_whole(self, grid, r_endo, r_epi):
        gt = ph.build_phantom(ph.PhantomConfig(grid=grid, r_endo=r_endo,
                                               r_epi=r_epi, seed=5))
        whole = enc.coil_kspace(gt.clean_series, gt.coils, gt.phase)
        for c, maps_c in enumerate(gt.coils.maps):
            got = enc.coil_kspace(gt.clean_series, dm.CoilMaps(maps_c[None]), gt.phase)
            assert np.array_equal(got[0].view(np.uint64), whole[c].view(np.uint64))

    def test_per_coil_grids_pack_and_combine_as_the_whole(self, small_phantom,
                                                          noisy_full):
        # the packed order is coil-major: each coil's kept entries in turn
        # are the C-order kept entries of the whole grid
        cfg, gt = small_phantom
        kgrid, coils, _ = noisy_full
        per_coil = [k_c.copy() for k_c in kgrid]
        mask = enc.make_sampling_mask(cfg.grid[1], cfg.grid[2],
                                      gt.clean_series.column_labels, R=3, seed=2)
        d = enc.extract_samples(per_coil, mask)
        kept = kgrid[enc._bool_grid_mask(mask, len(per_coil), cfg.grid[0])]
        assert d.n_coils == len(per_coil) == cfg.n_coils
        assert d.samples.dtype == enc.EncodingModel.dtype
        assert np.array_equal(d.samples, kept.astype(enc.EncodingModel.dtype))
        assert np.array_equal(enc.coil_combine(per_coil, coils),
                              enc.coil_combine(kgrid, coils))

    def test_combine_lets_each_grid_of_an_iterator_go(self, noisy_full):
        # no earlier grid is alive when the iterator makes the next one
        kgrid, coils, _ = noisy_full
        refs, alive = [], []

        def grids():
            for k_c in kgrid:
                gc.collect()
                alive.append(sum(ref() is not None for ref in refs))
                grid = k_c.copy()
                refs.append(weakref.ref(grid))
                yield grid
                del grid

        got = enc.coil_combine(grids(), coils)
        assert alive == [0] * len(kgrid)
        assert np.array_equal(got, enc.coil_combine(kgrid, coils))
        n = coils.n_coils
        with pytest.raises(ValidationError,
                           match=re.escape(f"{n - 1} coil grid(s) for {n} coil maps")):
            enc.coil_combine(kgrid[:-1], coils)


class TestKSpaceContainer:
    def test_round_trip(self, small_phantom, tmp_path):
        cfg, gt = small_phantom
        labels = gt.clean_series.column_labels
        mask = enc.make_sampling_mask(cfg.grid[1], cfg.grid[2], labels, R=2, seed=1)
        kfull = enc.coil_kspace(gt.clean_series, gt.coils, gt.phase)
        d = enc.extract_samples(kfull, mask)
        # the kept entries of the complex128 grid, rounded once
        kept = kfull[enc._bool_grid_mask(mask, d.n_coils, cfg.grid[0])]
        np.testing.assert_array_equal(d.samples, kept.astype(np.complex64))
        enc.save_kspace(tmp_path / "k", d)
        back = enc.load_kspace(tmp_path / "k")
        assert d.samples.dtype == back.samples.dtype == enc.EncodingModel.dtype
        assert (back.mask.seed, back.mask.R_nominal) == (1, 2.0)
        assert back.mask.column_labels == labels
        assert back.n_coils == d.n_coils
        assert back.spatial_dims == d.spatial_dims
        assert np.array_equal(back.mask.kept, d.mask.kept)
        np.testing.assert_array_equal(back.samples, d.samples)
