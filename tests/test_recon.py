import gc
import re
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from lrcs_cdti import datamodel as dm
from lrcs_cdti import encoding as enc
from lrcs_cdti import phantom as ph
from lrcs_cdti import pipeline, recon
from lrcs_cdti.errors import NumericalError, ValidationError
from lrcs_cdti.transforms import (WaveletSpec, group_shrink, series_adjoint,
                                  series_forward)
import solves


@pytest.fixture(scope="module")
def bench():
    """Small noiseless phantom with phase, plus masks and models."""
    cfg = ph.PhantomConfig(grid=(32, 32, 2), r_endo=6, r_epi=12, seed=4)
    gt = ph.build_phantom(cfg)
    labels = gt.clean_series.column_labels
    kfull = enc.coil_kspace(gt.clean_series, gt.coils, gt.phase)
    return cfg, gt, labels, kfull


def make_model(gt, labels, kfull, R, seed=0):
    ny, nz = gt.clean_series.spatial_dims[1:]
    mask = enc.make_sampling_mask(ny, nz, labels, R=R, seed=seed)
    d = enc.extract_samples(kfull, mask)
    model = enc.EncodingModel(gt.coils, mask, None)
    return mask, d, model


def phased(model, phase):
    """The model of ``model``'s coil maps and mask with ``phase``."""
    return enc.EncodingModel(model.coils, model.mask, phase)


def true_rank(gt, tol=1e-9):
    s = np.linalg.svd(np.abs(gt.clean_series.data), compute_uv=False)
    return int((s > tol * s[0]).sum())


class TestCsOnly:
    def test_requires_phase_free_model(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, _ = make_model(gt, labels, kfull, R=2)
        model = enc.EncodingModel(gt.coils, mask, gt.phase)
        with pytest.raises(ValidationError, match="phase-free"):
            solves.cs(d, model, recon.SolverConfig(lam=1.0))

    def test_without_a_start_it_starts_from_the_adjoint_of_its_samples(self, bench):
        # the one solve that may run without a start: its own U0 solve is
        # the one a caller makes
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2)
        scfg = recon.SolverConfig(lam=1e-2 * recon.lambda_base(d, model), max_iters=3)
        assert_same_solve(recon.reconstruct_cs_only(d, model, scfg),
                          solves.cs(d, model, scfg))

    def test_zero_data_gives_zero_image(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2)
        d0 = enc.KSpaceData(np.zeros_like(d.samples), mask, d.spatial_dims, d.n_coils)
        res = solves.cs(d0, model, recon.SolverConfig(lam=1.0))
        assert np.all(res.series.data == 0)
        assert "zero" in res.report.stop_reason

    def test_tiny_lambda_full_sampling_matches_least_squares(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=1)
        lam = 1e-12 * np.linalg.norm(d.samples)
        res = solves.cs(d, model, recon.SolverConfig(lam=lam, cg_max_iters=40))
        x_true = gt.phase.values * gt.clean_series.data
        err = np.linalg.norm(res.series.data - x_true) / np.linalg.norm(x_true)
        assert err < 1e-6


class TestSolverPrecision:
    def test_cg_tol_and_alpha_decay_are_constants(self):
        # the CG tolerance, the threshold decay and the inner CG cap are
        # fixed, so a solver config that sets one names the key
        assert [f.name for f in fields(recon.SolverConfig)] == [
            "lam", "max_iters", "cg_max_iters"]
        for key, value in (("cg_tol", recon.CG_TOL), ("alpha_decay", recon.ALPHA_DECAY),
                           ("inner_cg_cap", recon.INNER_CG_CAP)):
            with pytest.raises(ValidationError,
                               match=re.escape(f"unknown SolverConfig key(s): '{key}'")):
                dm.config_from_json(recon.SolverConfig, {key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("cg_max_iters", 0, "cg_max_iters must be >= 1, got 0"),
        ("cg_max_iters", -2, "cg_max_iters must be >= 1, got -2"),
    ])
    def test_cg_settings_that_stop_cg_before_its_first_step_are_rejected(
            self, key, value, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            dm.config_from_json(recon.SolverConfig, {key: value})
        assert recon.SolverConfig(cg_max_iters=1).cg_max_iters == 1

    def test_solves_return_complex128(self, bench):
        # the solver iterates in complex64; U and the series leave in complex128
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=1)
        assert model.dtype == np.complex64
        lam = 1e-2 * recon.lambda_base(d, model)
        v = recon.estimate_subspace(gt.clean_series, 3)
        scfg = recon.SolverConfig(lam=lam, max_iters=2)
        results = [solves.cs(d, model, scfg),
                   solves.lrcs(d, phased(model, gt.phase), v, scfg),
                   solves.lrcs(d, phased(model, gt.phase), v, replace(scfg, lam=0.0))]
        for res in results:
            assert res.series.data.dtype == np.complex128
        for basis in (np.eye(len(labels)), v):
            u, _ = solves.admm(d, model, basis, scfg)
            assert u.dtype == np.complex128


    def test_wavelet_side_runs_in_the_model_dtype(self, bench, monkeypatch):
        # the transform, its adjoint and the shrink see only model.dtype
        # arrays: no cast to complex128 inside the ADMM loop
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=1)
        lam = 1e-2 * recon.lambda_base(d, model)
        seen = []

        def spy(fn):
            def wrapper(arr, *args):
                seen.append((fn.__name__, np.asarray(arr).dtype))
                return fn(arr, *args)
            return wrapper
        for name in ("series_forward", "series_adjoint", "group_shrink"):
            monkeypatch.setattr(recon, name, spy(getattr(recon, name)))
        v = recon.estimate_subspace(gt.clean_series, 3)
        scfg = recon.SolverConfig(lam=lam, max_iters=3)
        solves.lrcs(d, phased(model, gt.phase), v, scfg)
        solves.cs(d, model, scfg)
        names = [name for name, _ in seen]
        assert names.count("series_forward") == 2 * 4
        assert names.count("series_adjoint") == names.count("group_shrink") == 2 * 3
        assert {dtype for _, dtype in seen} == {model.dtype}


class TestPhaseEstimate:
    def test_positive_real_gives_ones(self, bench):
        cfg, gt, labels, _ = bench
        pmap = recon.estimate_phase_map(gt.clean_series)
        np.testing.assert_allclose(pmap.values, 1.0 + 0j, atol=1e-14)

    def test_argument_extraction(self):
        series = dm.CasoratiSeries(np.array([[-2j]]), (1, 1, 1), dm.make_labels([0], []))
        pmap = recon.estimate_phase_map(series)
        assert pmap.values[0, 0] == pytest.approx(-1j)

    def test_zero_maps_to_one(self):
        series = dm.CasoratiSeries(np.array([[0.0 + 0j]]), (1, 1, 1),
                                   dm.make_labels([0], []))
        assert recon.estimate_phase_map(series).values[0, 0] == 1.0

    def test_recovers_simulated_phase_at_r2(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2)
        lam = 1e-3 * recon.lambda_base(d, model)
        prelim = solves.cs(d, model, recon.SolverConfig(lam=lam))
        pmap = recon.estimate_phase_map(prelim.series)
        rows = gt.myocardium_mask.ravel(order="F")
        dw = ~gt.clean_series.b0_columns
        err = np.angle(pmap.values * np.conj(gt.phase.values))[rows][:, dw]
        assert np.median(np.abs(err)) < 0.05


class TestSubspace:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(0)
        u = np.abs(rng.normal(size=(50, 1)))
        v = np.abs(rng.normal(size=(1, 6)))
        labels = dm.make_labels([0, 1000], [tuple(x) for x in np.eye(3)] + [
            (0.0, np.sqrt(0.5), np.sqrt(0.5)), (np.sqrt(0.5), 0.0, np.sqrt(0.5))])
        series = dm.CasoratiSeries((u @ v).astype(complex), (50, 1, 1), labels[:6])
        basis = recon.estimate_subspace(series, 1)
        proj = np.abs(series.data) @ basis.conj().T @ basis
        assert np.linalg.norm(proj - np.abs(series.data)) < 1e-10

    def test_rows_orthonormal(self, bench):
        cfg, gt, labels, _ = bench
        basis = recon.estimate_subspace(gt.clean_series, 5)
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(5), atol=1e-12)

    def test_phantom_projection_residual(self):
        # constant attenuation (isotropic tensors) makes the magnitude
        # series rank 2: L = 3 captures it to numerical precision
        cfg = ph.PhantomConfig(grid=(32, 32, 2), r_endo=6, r_epi=12,
                               fa_true=0.0, seed=4)
        gt = ph.build_phantom(cfg)
        mag = np.abs(gt.clean_series.data)
        basis = recon.estimate_subspace(gt.clean_series, 3)
        resid = np.linalg.norm(mag - mag @ basis.conj().T @ basis)
        assert resid / np.linalg.norm(mag) < 1e-3

    def test_rank_bounds(self, bench):
        cfg, gt, labels, _ = bench
        with pytest.raises(ValidationError):
            recon.estimate_subspace(gt.clean_series, 0)
        with pytest.raises(ValidationError):
            recon.estimate_subspace(gt.clean_series, 99)


class TestSelectLambda:
    def test_single_candidate_passthrough(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2)
        scfg = recon.SolverConfig(lam=0.0)
        lam, result = recon.select_lambda(d, model, [0.123], scfg,
                                          solves.cs_start(d, model, scfg))
        assert lam == 0.123
        assert result.report.lam == 0.123

    def test_empty_rejected(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2)
        scfg = recon.SolverConfig(lam=0.0)
        with pytest.raises(ValidationError):
            recon.select_lambda(d, model, [], scfg, solves.cs_start(d, model, scfg))

    def test_argmin_contract(self, bench, monkeypatch):
        # the candidates share one U0 solve; each equals its cold solve bit
        # for bit, and the choice is the argmin of the cold solves' norms
        # after the proposed phase correction, which is the norm of |X|
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=3, seed=2)
        grid = recon.default_lambda_grid(recon.lambda_base(d, model))
        scfg = recon.SolverConfig(lam=0.0, max_iters=8)
        cold, norms, magnitude_norms = [], [], []
        for candidate in grid:
            res = solves.cs(d, model, replace(scfg, lam=candidate))
            corrected = np.conj(recon.estimate_phase_map(res.series).values) \
                * res.series.data
            norms.append(np.linalg.svd(corrected, compute_uv=False).sum())
            magnitude_norms.append(
                np.linalg.svd(res.series.magnitude(), compute_uv=False).sum())
            cold.append(res)
        np.testing.assert_allclose(magnitude_norms, norms, rtol=1e-12, atol=0)
        real = recon.reconstruct_cs_only
        shared = []

        def spy(*args):
            shared.append(real(*args))
            return shared[-1]

        monkeypatch.setattr(recon, "reconstruct_cs_only", spy)
        lam, result = recon.select_lambda(d, model, grid, scfg,
                                          solves.cs_start(d, model, scfg))
        assert lam == grid[int(np.argmin(norms))]
        assert result is shared[int(np.argmin(norms))]
        assert len(shared) == len(cold) == 3
        for a, b in zip(shared, cold):
            assert_same_solve(a, b)

    def test_returns_the_winning_solve(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=3, seed=2)
        grid = recon.default_lambda_grid(recon.lambda_base(d, model))
        scfg = recon.SolverConfig(lam=0.0, max_iters=4)
        lam, result = recon.select_lambda(d, model, grid, scfg,
                                          solves.cs_start(d, model, scfg))
        fresh = solves.cs(d, model, replace(scfg, lam=lam))
        np.testing.assert_array_equal(result.series.data, fresh.series.data)
        assert result.report.to_json()["delta_u"] == fresh.report.to_json()["delta_u"]


def assert_same_solve(a, b):
    """Bit-equal series and reports, wall times aside."""
    np.testing.assert_array_equal(a.series.data, b.series.data)
    assert {**a.report.to_json(), "wall_time_s": 0} == {**b.report.to_json(),
                                                         "wall_time_s": 0}


class TestSharedSolves:
    @pytest.mark.parametrize("mode", ["proposed", "none"])
    @pytest.mark.parametrize("order", [("lr", "lrcs"), ("lrcs", "lr")],
                             ids=["lr-first", "lrcs-first"])
    def test_lr_is_the_first_solve_of_lrcs(self, bench, monkeypatch, mode, order):
        # lr and lrcs at one phase mode run one U0 solve between them, and
        # each equals its cold solve from the same phase map and subspace
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=3)
        prelim = recon.preliminary(
            d, gt.coils, recon.SolverConfig(max_iters=4, cg_max_iters=8), 4, scale=1e-2)
        scfg = prelim.cfg
        pmap = recon.estimate_phase_map(prelim.series) if mode == "proposed" else None
        v = recon.estimate_subspace(prelim.series, 4)
        cold = {"lrcs": solves.lrcs(d, phased(model, pmap), v, scfg),
                "lr": solves.lrcs(d, phased(model, pmap), v, replace(scfg, lam=0.0))}
        real, cg_runs = recon.cg_solve, []

        def counted(*args):
            cg_runs.append(1)
            return real(*args)

        monkeypatch.setattr(recon, "cg_solve", counted)
        shared = {m: recon.recon(prelim, m, mode) for m in order}
        # one U0 solve and the K solves of lrcs
        assert sum(cg_runs) == 1 + scfg.max_iters
        for m in order:
            assert_same_solve(shared[m], cold[m])
        assert shared["lr"].report.cg_iters == shared["lrcs"].report.cg_iters[:1]

    def test_start_of_another_problem_is_a_named_error(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=3)
        scfg = recon.SolverConfig(lam=1.0, max_iters=2, cg_max_iters=2)
        v = recon.estimate_subspace(gt.clean_series, 4)
        start = solves.start(d, model, v[:3], scfg)
        with pytest.raises(ValidationError, match="does not match rank 4"):
            recon.admm_solve(model, v, scfg, start)


class TestPreliminary:
    @pytest.mark.parametrize("weight", [{"lam": 1.0}, {"scale": 1e-2}, {}],
                             ids=["lambda", "scale", "grid-search"])
    @pytest.mark.parametrize("coils, found", [
        (lambda c: dm.CoilMaps(c.maps[:, :30]), "(30, 32, 2) with 4"),
        (lambda c: dm.CoilMaps(c.maps[:3]), "(32, 32, 2) with 3")],
        ids=["grid", "coil-count"])
    def test_kspace_of_other_coil_maps_is_a_named_error(self, bench, monkeypatch,
                                                        coils, found, weight):
        cfg, gt, labels, kfull = bench
        _, d, _ = make_model(gt, labels, kfull, R=2)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")
        monkeypatch.setattr(recon, "admm_solve", no_solve)
        monkeypatch.setattr(recon, "adjoint_matrix", no_solve)
        with pytest.raises(ValidationError, match=re.escape(
                "k-space of grid (32, 32, 2) with 4 coil(s) does not match "
                f"coil maps of grid {found}")):
            recon.preliminary(d, coils(gt.coils), recon.SolverConfig(), recon.RANK,
                              **weight)

    @pytest.mark.parametrize("rank", [0, 14])
    def test_rank_outside_the_column_count_is_a_named_error(self, bench, monkeypatch,
                                                            rank):
        cfg, gt, labels, kfull = bench
        _, d, _ = make_model(gt, labels, kfull, R=2)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")
        monkeypatch.setattr(recon, "adjoint_matrix", no_solve)
        with pytest.raises(ValidationError, match=re.escape(
                f"rank must be in [1, 13], got {rank}")):
            recon.preliminary(d, gt.coils, recon.SolverConfig(), rank, lam=1.0)

    def test_the_preliminary_carries_its_problem(self, bench):
        # the solve model is the phase-free model of the k-space's own
        # mask; the weight and the rank are the ones every method reads
        cfg, gt, labels, kfull = bench
        _, d, model = make_model(gt, labels, kfull, R=3)
        scfg = recon.SolverConfig(max_iters=3, cg_max_iters=6)
        prelim = recon.preliminary(d, gt.coils, scfg, 5, scale=1e-2)
        # it keeps the samples' adjoint, and not the samples
        assert "d" not in {f.name for f in fields(prelim)}
        assert prelim.model.mask is d.mask
        np.testing.assert_array_equal(prelim.adj, enc.adjoint_matrix(model, d.samples))
        assert prelim.model.coils is gt.coils and prelim.model.phase is None
        lam = 1e-2 * recon.lambda_base(d, model)
        assert prelim.cfg == replace(scfg, lam=lam) and prelim.rank == 5
        assert_same_solve(prelim, solves.cs(d, model, prelim.cfg))
        res = recon.recon(prelim, "lrcs", "none")
        assert res.report.rank == 5 and res.report.lam == lam
        assert_same_solve(res, solves.lrcs(
            d, model, recon.estimate_subspace(prelim.series, 5), prelim.cfg))

    def test_with_no_weight_the_grid_picks_it_and_makes_no_phase_map(
            self, bench, monkeypatch):
        # the preliminary is select_lambda's winning solve over
        # default_lambda_grid, and the problem's one phase map is the one
        # the Preliminary makes for the proposed mode
        cfg, gt, labels, kfull = bench
        _, d, model = make_model(gt, labels, kfull, R=3, seed=2)
        scfg = recon.SolverConfig(max_iters=4, cg_max_iters=6)
        grid = recon.default_lambda_grid(recon.lambda_base(d, model))
        lam, want = recon.select_lambda(d, model, grid, scfg,
                                        solves.cs_start(d, model, scfg))
        real, phase_maps = recon.estimate_phase_map, []

        def counted(series):
            phase_maps.append(series)
            return real(series)

        monkeypatch.setattr(recon, "estimate_phase_map", counted)
        prelim = recon.preliminary(d, gt.coils, scfg, 5)
        assert prelim.cfg == replace(scfg, lam=lam)
        assert_same_solve(prelim, want)
        assert len(phase_maps) == 0
        assert recon.recon(prelim, "lrcs", "proposed").report.lam == lam
        assert len(phase_maps) == 1 and phase_maps[0] is prelim.series


    def test_the_phased_model_keeps_one_complex64_phase_and_shares_the_fields(
            self, bench, monkeypatch):
        # the proposed mode's model keeps its phase map once, in complex64:
        # the complex128 map that estimate_phase_map returns is dead once
        # setup returns; its coil and line fields are the phase-free
        # model's arrays, and each field equals a model built cold
        cfg, gt, labels, kfull = bench
        _, d, _ = make_model(gt, labels, kfull, R=3)
        real, made = recon.estimate_phase_map, []

        def watched(series):
            pmap = real(series)
            made.extend([weakref.ref(pmap), weakref.ref(pmap.values)])
            return pmap

        monkeypatch.setattr(recon, "estimate_phase_map", watched)
        scfg = recon.SolverConfig(max_iters=2, cg_max_iters=4)
        prelim = recon.preliminary(d, gt.coils, scfg, 5, lam=1.0)
        model, _ = prelim.setup(recon.PhaseMode.PROPOSED)
        gc.collect()
        assert len(made) == 2 and [ref() for ref in made] == [None, None]
        shape = (model.n_voxels, model.n_columns)
        assert model.phase.values.shape == shape
        assert model.phase.values.dtype == np.complex64
        assert np.shares_memory(model.phase.values, model._phase_t)
        assert not [name for name, a in vars(model).items()
                    if isinstance(a, np.ndarray) and a.dtype == np.complex128]
        shared = ("_maps_a", "_maps_a_conj", "_kb", "_sos", "_rows", "_rows_h")
        for name in shared:
            assert getattr(model, name) is getattr(prelim.model, name), name
        assert model.coils is prelim.model.coils and model.mask is prelim.model.mask
        cold = enc.EncodingModel(gt.coils, d.mask, real(prelim.series))
        for name in (*shared, "_n_full", "_phase_t"):
            np.testing.assert_array_equal(getattr(model, name), getattr(cold, name))


class TestExactRecovery:
    def test_r1_all_methods_agree_with_truth(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=1)
        x_true = gt.phase.values * gt.clean_series.data
        rank = true_rank(gt)
        scfg = recon.SolverConfig(lam=1e-12 * np.linalg.norm(d.samples),
                                  cg_max_iters=40)
        v = recon.estimate_subspace(gt.clean_series, rank)
        res_lrcs = solves.lrcs(d, phased(model, gt.phase), v, scfg)
        res_lr = solves.lrcs(d, phased(model, gt.phase), v, replace(scfg, lam=0.0))
        res_cs = solves.cs(d, model, scfg)
        for res in (res_lrcs, res_lr, res_cs):
            err = np.linalg.norm(res.series.data - x_true) / np.linalg.norm(x_true)
            assert err < 1e-6
        assert np.linalg.norm(res_lrcs.series.data - res_lr.series.data) \
            < 1e-6 * np.linalg.norm(x_true)
        assert np.linalg.norm(res_lrcs.series.data - res_cs.series.data) \
            < 1e-6 * np.linalg.norm(x_true)

    def test_lambda_zero_identity_v_reduces_to_least_squares(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=1)
        n = len(labels)
        v = np.eye(n, dtype=complex)
        res = solves.lrcs(d, model, v, recon.SolverConfig(lam=0.0))
        # direct CG on the normal equations, iterating X^T (N, M) as the
        # solver does, is the same complex64 computation, so the solve
        # matches it exactly
        rhs = enc.adjoint_matrix(model, d.samples).T
        # the residual of the zero start is rhs itself, in C order
        xt, _, _ = recon.cg_solve(lambda u: enc.normal_matrix(model, u.T).T, rhs,
                                  np.zeros_like(rhs), recon.CG_TOL,
                                  recon.SolverConfig().cg_max_iters, rhs.copy())
        np.testing.assert_array_equal(res.series.data, xt.T)

    def test_full_rank_subspace_equals_plain_least_squares(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=1)
        n = len(labels)
        res_full = solves.lrcs(d, model, np.eye(n, dtype=complex),
                               recon.SolverConfig(lam=0.0, cg_max_iters=40))
        x_true = gt.phase.values * gt.clean_series.data
        err = np.linalg.norm(res_full.series.data - x_true) / np.linalg.norm(x_true)
        assert err < 1e-6


# how far above the minimum of its objective a solve at the default
# schedule may end, relative: TestMinimumOracle measured 1.5e-5 (cs) and
# 1.9e-6 (lrcs), and 1.0e-1 and 5.0e-2 after one iteration
ORACLE_GAP = 1e-4


def objective(model, adj, d_norm2, lam, x):
    """||d - A(x)||^2 + lam ||Psi x||_{1,2} of the (M, N) series ``x`` on
    ``model``, given ``adj`` = A*(d) on ``model`` and ``d_norm2`` =
    ||d||^2.  The data term is ||d||^2 - 2 Re<x, A*d> + <x, A*A x>,
    summed in float64 over the complex64 A*A.  For x = U V with V of
    orthonormal rows the penalty is lam ||Psi U||_{1,2}, the ADMM's."""
    x = np.asarray(x, dtype=model.dtype)
    ata = enc.normal_matrix(model, x).astype(np.complex128)
    x = x.astype(np.complex128)
    data = d_norm2 - 2 * np.vdot(x, adj).real + np.vdot(x, ata).real
    coef = series_forward(x, WaveletSpec(dims=model.spatial_dims))
    return data + lam * np.linalg.norm(coef, axis=1).sum()


def fista_minimum(model, adj, d_norm2, lam, v, u0, iters=300):
    """The :func:`objective` of U V after ``iters`` FISTA steps on U from
    ``u0`` (Beck & Teboulle, SIAM J. Imaging Sci. 2009): a gradient step
    of 1/L on the data term, L = 2 max sum_c |S_c|^2 >= 2 ||A*A||, and
    the prox of the orthonormal wavelet's group penalty,
    Psi^H shrink(Psi U, lam/L)."""
    spec = WaveletSpec(dims=model.spatial_dims)
    step = 1.0 / (2.0 * float(model._sos.max()))
    v = np.asarray(v, dtype=np.complex128)
    u = y = u0.astype(np.complex128)
    t = 1.0
    for _ in range(iters):
        grad = 2.0 * (enc.normal_matrix(model, (y @ v).astype(model.dtype)) - adj) \
            @ v.conj().T
        u_next = series_adjoint(
            group_shrink(series_forward(y - step * grad, spec), lam * step), spec)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = u_next + ((t - 1.0) / t_next) * (u_next - u)
        u, t = u_next, t_next
    return objective(model, adj, d_norm2, lam, u @ v)


class TestMinimumOracle:
    @pytest.fixture(scope="class")
    def problem(self):
        """The noisy samples at R = 2 and the estimated coil maps of a
        16x16x2 phantom, acquired as in the study."""
        cfg = ph.PhantomConfig(grid=(16, 16, 2), r_endo=3, r_epi=6)
        [d], coils = pipeline.acquire(*pipeline.acquisition_inputs(ph.build_phantom(cfg)),
                                      [pipeline.sampling_mask(cfg, 2.0)])
        return d, coils

    @pytest.mark.parametrize("max_iters", [recon.SolverConfig().max_iters, 1],
                             ids=["default", "one-iteration"])
    @pytest.mark.parametrize("method", ["cs", "lrcs"])
    def test_the_solve_ends_near_the_minimum_of_its_objective(self, problem, method,
                                                              max_iters):
        # FISTA from the solve's own start is the oracle; one ADMM
        # iteration ends far above it, which shows the bound can fail
        d, coils = problem
        prelim = recon.preliminary(d, coils, recon.SolverConfig(max_iters=max_iters),
                                   recon.RANK, scale=recon.LAMBDA_SCALE)
        lam = prelim.cfg.lam
        d_norm2 = float(np.linalg.norm(d.samples.astype(np.complex128)) ** 2)
        if method == "cs":
            model, v = prelim.model, np.eye(prelim.model.n_columns)
            start = recon.first_solve(model, v, prelim.adj, prelim.cfg)
            x = prelim.series.data
        else:
            (model, start), v = prelim.setup("proposed"), prelim.subspace
            # P o (U V) back to U V, |P| = 1
            x = np.conj(model.phase.values) \
                * recon.recon(prelim, "lrcs", "proposed").series.data
        adj = enc.unphase(model, prelim.adj).astype(np.complex128)
        f_min = fista_minimum(model, adj, d_norm2, lam, v, start.u.T)
        gap = (objective(model, adj, d_norm2, lam, x) - f_min) / f_min
        assert (gap <= ORACLE_GAP) == (max_iters > 1), gap


class TestAdmmBehavior:
    def test_noiseless_r2_nrmse_within_bound(self):
        # phase-free noiseless instance isolates the undersampling error;
        # the measured value is pinned after the first run (0.0113)
        cfg = ph.PhantomConfig(grid=(32, 32, 2), r_endo=6, r_epi=12, seed=4,
                               snr=None, phase_coef_range=0.0)
        gt = ph.build_phantom(cfg)
        labels = gt.clean_series.column_labels
        kfull = enc.coil_kspace(gt.clean_series, gt.coils, gt.phase)
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=1)
        lam = 1e-3 * recon.lambda_base(d, model)
        res = solves.cs(d, model, recon.SolverConfig(lam=lam))
        rows = gt.myocardium_mask.ravel(order="F")
        mag_true = np.abs(gt.clean_series.data)
        nrmse = (np.linalg.norm((np.abs(res.series.data) - mag_true)[rows])
                 / np.linalg.norm(mag_true[rows]))
        assert nrmse < 0.03
        assert nrmse < 0.0113 * 1.25   # regression pin

    def test_feasibility_gap_decreases_at_the_end(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=3)
        lam = 1e-2 * recon.lambda_base(d, model)
        v = recon.estimate_subspace(gt.clean_series, 3)
        res = solves.lrcs(d, phased(model, gt.phase), v, recon.SolverConfig(lam=lam))
        # ||Psi U V - G|| falls until it reaches the float32 resolution of
        # ||Psi U V|| = ||U V|| (orthonormal wavelet), where complex64
        # rounding sets a floor; Psi U V itself is complex64 and the CG
        # residual is carried across solves (measured 2.62, 2.20, 3.38,
        # 2.47 eps ||U V|| over the last four iterations); the series is
        # P o (U V) with |P| = 1, so its norm is ||U V||
        floor = 3.4 * np.finfo(np.float32).eps * np.linalg.norm(res.series.data)
        gaps = res.report.feasibility[-8:]
        assert gaps[0] > 5 * floor and gaps[-1] <= floor
        assert all(b < a or b <= floor for a, b in zip(gaps, gaps[1:]))

    def test_normal_operator_is_hermitian_positive(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=5)
        rng = np.random.default_rng(0)
        m, n = gt.clean_series.data.shape
        x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        y = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        hx = enc.normal_matrix(model, x)
        hy = enc.normal_matrix(model, y)
        assert np.vdot(x, hx).real > 0
        # complex64 operator: measured 6.5e-7 relative
        assert np.vdot(y, hx) == pytest.approx(np.conj(np.vdot(x, hy)), rel=5e-6)

    def test_global_phase_equivariance(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=2)
        lam = 1e-2 * recon.lambda_base(d, model)
        v = recon.estimate_subspace(gt.clean_series, 4)
        scfg = recon.SolverConfig(lam=lam, max_iters=8)
        res1 = solves.lrcs(d, phased(model, gt.phase), v, scfg)
        phi = np.exp(1j * 0.83)
        d2 = enc.KSpaceData(phi * d.samples, mask, d.spatial_dims, d.n_coils)
        res2 = solves.lrcs(d2, phased(model, gt.phase), v, scfg)
        # complex64 solver arithmetic: measured 7.0e-7 of the largest entry
        np.testing.assert_allclose(res2.series.data, phi * res1.series.data,
                                   atol=5e-6 * np.abs(res1.series.data).max())

    @pytest.mark.parametrize("first_nan", [1, 16, 40])
    def test_non_finite_iterate_is_a_named_error(self, bench, first_nan, monkeypatch):
        # A*A turns NaN from call first_nan on; the solve holding that
        # call (0 is U0, k >= 1 is ADMM iteration k - 1) returns a NaN
        # iterate, which the loop rejects at once
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=4, seed=2)
        scfg = recon.SolverConfig(lam=1e-2 * recon.lambda_base(d, model), max_iters=6)
        cg_iters = solves.cs(d, model, scfg).report.cg_iters
        solve = int(np.searchsorted(np.cumsum(cg_iters), first_nan))
        assert first_nan <= sum(cg_iters)
        calls = []
        real = recon.normal_matrix

        def poisoned(*args, out=None):
            calls.append(1)
            out = real(*args, out=out)
            if len(calls) >= first_nan:
                out[:] = np.nan
            return out
        monkeypatch.setattr(recon, "normal_matrix", poisoned)
        with pytest.raises(NumericalError, match="NaN/Inf in ADMM iterate") as err:
            solves.cs(d, model, scfg)
        assert err.value.diagnostics == {"iteration": max(solve - 1, 0)}

    def test_non_finite_least_squares_solve_is_a_named_error(self, bench,
                                                             monkeypatch):
        # lr (lambda = 0) returns after the U0 solve, before any ADMM
        # iteration could reject it
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=4, seed=2)
        v = recon.estimate_subspace(gt.clean_series, 3)
        real = recon.normal_matrix

        def poisoned(*args, out=None):
            out = real(*args, out=out)
            out[:] = np.nan
            return out
        monkeypatch.setattr(recon, "normal_matrix", poisoned)
        with pytest.raises(NumericalError, match="NaN/Inf in ADMM iterate") as err:
            solves.lrcs(d, phased(model, gt.phase), v, recon.SolverConfig(lam=0.0))
        assert err.value.diagnostics == {"iteration": 0}

    def test_non_finite_operator_stops_the_solve_at_once(self, bench, monkeypatch):
        # A*A turns NaN on its third call, inside the U0 solve: CG stops
        # at that call, not after cg_max_iters, and its error is the cause
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=4, seed=2)
        scfg = recon.SolverConfig(lam=1e-2 * recon.lambda_base(d, model), max_iters=6)
        calls = []
        real = recon.normal_matrix

        def poisoned(*args, out=None):
            calls.append(1)
            out = real(*args, out=out)
            if len(calls) >= 3:
                out[:] = np.nan
            return out
        monkeypatch.setattr(recon, "normal_matrix", poisoned)
        with pytest.raises(NumericalError, match="NaN/Inf in ADMM iterate") as err:
            solves.cs(d, model, scfg)
        assert len(calls) == 3 and err.value.diagnostics == {"iteration": 0}
        cause = err.value.__cause__
        assert isinstance(cause, NumericalError)
        assert str(cause) == "NaN/Inf in CG at iteration 2"
        assert len(cause.diagnostics["residuals"]) == 3
        assert np.isfinite(cause.diagnostics["residuals"]).all()

    def test_deterministic(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=2)
        lam = 1e-2 * recon.lambda_base(d, model)
        v = recon.estimate_subspace(gt.clean_series, 4)
        scfg = recon.SolverConfig(lam=lam, max_iters=6)
        a = solves.lrcs(d, phased(model, gt.phase), v, scfg)
        b = solves.lrcs(d, phased(model, gt.phase), v, scfg)
        np.testing.assert_array_equal(a.series.data, b.series.data)

    def test_rank_deficient_v_rejected(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2)
        scfg = recon.SolverConfig(lam=1.0)
        start = solves.start(d, model, recon.estimate_subspace(gt.clean_series, 2), scfg)
        v = np.ones((2, len(labels)), dtype=complex)
        with pytest.raises(ValidationError, match="orthonormal rows"):
            recon.reconstruct_lrcs(model, v, scfg, start)

    def test_run_report_fields(self, bench):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=6)
        lam = 1e-2 * recon.lambda_base(d, model)
        v = recon.estimate_subspace(gt.clean_series, 3)
        scfg = recon.SolverConfig(lam=lam, max_iters=5)
        rep = solves.lrcs(d, model, v, scfg).report.to_json()
        assert len(rep["delta_u"]) == len(rep["alpha"]) == 5
        assert rep["wall_time_s"] > 0
        # the penalty rho = lambda/alpha grows by the decay factor each iteration
        rho = [rep["lambda"] / a for a in rep["alpha"]]
        assert rep["lambda"] == lam and "rho" not in rep
        assert all(b == pytest.approx(recon.ALPHA_DECAY * a)
                   for a, b in zip(rho, rho[1:]))
        assert len(rep["cg_residual"]) == len(rep["cg_iterations"]) == 6
        assert all(np.isfinite(r) and r >= 0 for r in rep["cg_residual"])


class TestCg:
    def test_diverging_system_raises(self):
        # a skew-dominated operator breaks the CG assumptions: positive
        # curvature along search directions, but the residual blows up
        rng = np.random.default_rng(0)
        skew = rng.normal(size=(8, 8))
        skew = skew - skew.T
        mat = np.eye(8) + 40 * skew

        def apply_h(x):
            return mat @ x
        rhs = rng.normal(size=(8, 1)) + 0j
        x0 = np.zeros_like(rhs)
        with pytest.raises(NumericalError) as err:
            recon.cg_solve(apply_h, rhs, x0, 1e-12, 500, rhs - apply_h(x0))
        assert "residuals" in err.value.diagnostics

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("carried", [False, True], ids=["x0", "carried_r"])
    def test_non_finite_operator_raises_after_one_call(self, bad, carried):
        # NaN compares false with everything, so neither the curvature
        # test nor the divergence test would stop CG before max_iters
        calls = []

        def apply_h(x):
            calls.append(1)
            return np.full_like(x, bad)
        rhs = np.ones((6, 2), dtype=np.complex64)
        x0 = np.zeros_like(rhs)
        # x0: the caller forms the residual of x0 with the operator, and
        # CG finds it non-finite; carried_r: a finite carried residual,
        # and CG's first product is non-finite
        r = rhs.copy() if carried else rhs - apply_h(x0)
        with pytest.raises(NumericalError, match="NaN/Inf in CG at iteration 0") as err:
            recon.cg_solve(apply_h, rhs, x0, 1e-6, 15, r)
        assert len(calls) == 1
        assert err.value.diagnostics["iteration"] == 0
        assert len(err.value.diagnostics["residuals"]) == 1

    def test_zero_rhs(self):
        rhs, x0 = np.zeros((4, 1), dtype=complex), np.ones((4, 1), dtype=complex)
        r = rhs - x0
        x, its, res = recon.cg_solve(lambda x: x, rhs, x0, 1e-8, 10, r)
        assert np.all(x == 0) and its == 0 and not r.any()

    def test_solves_spd_system(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(12, 12))
        mat = a @ a.T + np.eye(12)
        rhs = (rng.normal(size=(12, 1)) + 1j * rng.normal(size=(12, 1)))

        def apply_h(x):
            return mat @ x
        x0 = np.zeros_like(rhs)
        x, its, res = recon.cg_solve(apply_h, rhs, x0, 1e-10, 100, rhs - apply_h(x0))
        assert np.linalg.norm(mat @ x - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_inputs_not_modified(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 10))
        mat = a @ a.T + np.eye(10)
        rhs = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        x0 = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        rhs_before, x0_before = rhs.copy(), x0.copy()
        x, its, _ = recon.cg_solve(lambda v: mat @ v, rhs, x0, 1e-10, 100, rhs - mat @ x0)
        assert its > 0 and x is not x0
        np.testing.assert_array_equal(rhs, rhs_before)
        np.testing.assert_array_equal(x0, x0_before)

    @pytest.mark.parametrize("path", ["tol", "cap", "singular", "zero_rhs"])
    def test_given_residual_replaces_the_first_product(self, path):
        # complex64, as in the ADMM; CG never applies H to x0, and on
        # every return path the residual handed in is left as the
        # residual of the returned x
        rng = np.random.default_rng(3)
        n = 16
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mat = np.eye(n) + 0.2 * a @ a.conj().T / n
        rhs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        # a warm start near the solution, as in the ADMM
        x0 = np.linalg.solve(mat, rhs) + 0.1 * rng.normal(size=(n, 2))
        cap = 2 if path == "cap" else 100
        if path == "singular":
            # x0 and rhs in the null space of H: the first direction has
            # zero curvature
            mat = np.diag([1.0] * (n // 2) + [0.0] * (n // 2))
            rhs[:n // 2] = x0[:n // 2] = 0
        if path == "zero_rhs":
            rhs[:] = 0
        mat, rhs, x0 = (v.astype(np.complex64) for v in (mat, rhs, x0))
        calls = []

        def apply_h(x):
            calls.append(1)
            return mat @ x
        r = rhs - apply_h(x0)
        calls.clear()
        got = recon.cg_solve(apply_h, rhs, x0, recon.CG_TOL, cap, r)
        its, res = got[1:]
        # one product per step, and one more for the zero-curvature step
        # that stops the singular system
        assert len(calls) == its + (path == "singular")
        assert {"tol": 0 < its < cap and res < recon.CG_TOL,
                "cap": its == cap, "singular": its == 0,
                "zero_rhs": its == 0 and not got[0].any()}[path]
        exact = rhs.astype(complex) - mat.astype(complex) @ got[0].astype(complex)
        assert np.linalg.norm(r - exact) <= recon.CG_TOL * np.linalg.norm(rhs)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_updates_land_in_the_iterate_and_the_given_residual(self, dtype):
        # numpy's in-place updates, in either precision, land in CG's
        # iterate and in the caller's residual itself, not in copies
        rng = np.random.default_rng(4)
        n = 12
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mat = (np.eye(n) + 0.3 * a @ a.conj().T / n).astype(dtype)
        rhs = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))).astype(dtype)
        tol = recon.CG_TOL if dtype == np.complex64 else 1e-12
        r = rhs.copy()
        x, its, res = recon.cg_solve(lambda v: mat @ v, rhs, np.zeros_like(rhs),
                                     tol, 100, r=r)
        assert x.dtype == dtype and 0 < its < 100 and res < tol
        exact = rhs.astype(complex) - mat.astype(complex) @ x.astype(complex)
        assert np.linalg.norm(exact) <= 2 * tol * np.linalg.norm(rhs)
        assert np.linalg.norm(r - exact) <= tol * np.linalg.norm(rhs)

    @pytest.mark.parametrize("bad", ["fortran", "strided", "dtype", "shape",
                                     "readonly"])
    def test_residual_axpy_cannot_update_is_a_named_error(self, bad):
        # CG updates the caller's residual in place and streams over it
        # in its inner products, so a residual it cannot update in place,
        # or one that is not C-contiguous, is refused before any work
        rng = np.random.default_rng(5)
        rhs = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        rhs = rhs.astype(np.complex64)
        r = {"fortran": np.asfortranarray(rhs),
             "strided": np.repeat(rhs, 2, axis=1)[:, ::2],
             "dtype": rhs.astype(np.complex128),
             "shape": rhs.reshape(4, 6).copy(),
             "readonly": rhs.copy()}[bad]
        if bad == "readonly":
            r.flags.writeable = False
        with pytest.raises(ValidationError, match="CG residual must be a writeable "
                                                  "C-contiguous complex64 array"):
            recon.cg_solve(lambda v: v, rhs, np.zeros_like(rhs), 1e-6, 10, r=r)

    @pytest.mark.parametrize("product", ["identity", "readonly", "complex128"])
    def test_cg_owns_the_product_it_scales(self, product):
        # CG scales H p in place, so it works on a copy of a product it
        # may not overwrite: its own argument, a read-only array, or one
        # of another precision; each gives the x and r of a fresh product
        rng = np.random.default_rng(6)
        n = 10
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        mat = (np.eye(n) + 0.3 * a @ a.conj().T / n).astype(np.complex64)
        if product == "identity":
            mat = np.eye(n, dtype=np.complex64)
        rhs = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))).astype(np.complex64)
        x0 = (0.5 * rng.normal(size=(n, 3))).astype(np.complex64)

        def fresh(v):
            return mat @ v

        def given(v):
            if product == "identity":
                return v
            hp = mat @ v
            if product == "complex128":
                return hp.astype(np.complex128)
            hp.flags.writeable = False
            return hp
        outs = []
        for apply_h in (fresh, given):
            r = rhs - mat @ x0
            x, its, res = recon.cg_solve(apply_h, rhs, x0, recon.CG_TOL, 100, r)
            outs.append((x, r, its, res))
        (x_want, r_want, its_want, res_want), (x, r, its, res) = outs
        assert x.dtype == r.dtype == np.complex64 and its == its_want > 0
        assert res == res_want
        np.testing.assert_array_equal(x, x_want)
        np.testing.assert_array_equal(r, r_want)
        assert np.linalg.norm(r) <= recon.CG_TOL * np.linalg.norm(rhs)


class TestResidualCarry:
    def run(self, bench, method):
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=4, seed=2)
        lam = 1e-2 * recon.lambda_base(d, model)
        v = recon.estimate_subspace(gt.clean_series, 3)
        scfg = recon.SolverConfig(lam=lam, max_iters=12)
        if method == "cs":
            return solves.cs(d, model, scfg)
        if method == "lr":
            return solves.lrcs(d, phased(model, gt.phase), v, replace(scfg, lam=0.0))
        return solves.lrcs(d, phased(model, gt.phase), v, scfg)

    @pytest.mark.parametrize("method", ["cs", "lr", "lrcs"])
    def test_every_normal_operator_call_is_a_cg_step(self, bench, method,
                                                     monkeypatch):
        calls = []
        real = recon.normal_matrix

        def counted(*args, out=None):
            calls.append(1)
            return real(*args, out=out)
        monkeypatch.setattr(recon, "normal_matrix", counted)
        report = self.run(bench, method).report
        assert len(calls) == sum(report.cg_iters) > 0

    @pytest.mark.parametrize("method", ["cs", "lrcs"])
    def test_carried_residual_matches_a_recomputed_one(self, bench, method,
                                                       monkeypatch):
        # on the way in (carried across systems) and on the way out
        # (updated by CG), within CG_TOL ||rhs||
        drifts = []
        real = recon.cg_solve

        def checked(apply_h, rhs, x0, tol, max_iters, r):
            def drift(x):
                return np.linalg.norm(r - (rhs - apply_h(x))) / np.linalg.norm(rhs)
            drifts.append(drift(x0))
            out = real(apply_h, rhs, x0, tol, max_iters, r)
            drifts.append(drift(out[0]))
            return out
        monkeypatch.setattr(recon, "cg_solve", checked)
        report = self.run(bench, method).report
        assert len(drifts) == 2 * len(report.cg_iters) == 26
        assert max(drifts) <= recon.CG_TOL


class TestInnerCgCap:
    """The U0 solve runs to CG_TOL or cg_max_iters steps; each
    warm-started solve of the ADMM loop to CG_TOL or
    min(cg_max_iters, INNER_CG_CAP) steps."""

    @pytest.mark.parametrize("cg_max_iters", [15, 6])
    def test_only_the_loop_solves_stop_at_the_inner_cap(self, bench, monkeypatch,
                                                        cg_max_iters):
        # 15 is the default cap, above INNER_CG_CAP; 6 is below it
        assert recon.SolverConfig().cg_max_iters == 15 > recon.INNER_CG_CAP > 6
        cfg, gt, labels, kfull = bench
        _, d, _ = make_model(gt, labels, kfull, R=4)
        calls = []
        real = recon.normal_matrix

        def counted(*args, out=None):
            calls.append(1)
            return real(*args, out=out)
        monkeypatch.setattr(recon, "normal_matrix", counted)
        scfg = recon.SolverConfig(cg_max_iters=cg_max_iters)
        prelim = recon.preliminary(d, gt.coils, scfg, recon.RANK, scale=1e-2)
        reports = [prelim.report, recon.recon(prelim, "lrcs", "proposed").report]
        inner_cap = min(cg_max_iters, recon.INNER_CG_CAP)
        for report in reports:
            # here the U0 solve needs every step it is allowed, the inner
            # solves of the first iterations every step of theirs
            assert report.cg_iters[0] == cg_max_iters
            inner = report.cg_iters[1:]
            assert len(inner) == scfg.max_iters
            assert max(inner) == inner_cap
        # lr is the U0 solve of lrcs, so it keeps the full cap too
        assert recon.recon(prelim, "lr", "proposed").report.cg_iters == [cg_max_iters]
        assert len(calls) == sum(sum(r.cg_iters) for r in reports)

    def test_first_solve_runs_cg_max_iters_steps(self, bench):
        cfg, gt, labels, kfull = bench
        _, d, model = make_model(gt, labels, kfull, R=4)
        adj = enc.adjoint_matrix(model, d.samples)
        for cap in (recon.INNER_CG_CAP + 4, recon.INNER_CG_CAP + 9):
            start = recon.first_solve(model, np.eye(model.n_columns), adj,
                                      recon.SolverConfig(cg_max_iters=cap))
            assert start.cg_iters == cap and start.cg_residual > recon.CG_TOL


class TestCgBuffers:
    @pytest.mark.parametrize("method", ["cs", "lrcs"])
    def test_the_steps_of_a_solve_share_the_operator_buffers(self, bench, method,
                                                              monkeypatch):
        # every CG step of one solve writes A*A into one grid and hands CG
        # one product buffer; each solve makes its own
        cfg, gt, labels, kfull = bench
        mask, d, model = make_model(gt, labels, kfull, R=4, seed=2)
        lam = 1e-2 * recon.lambda_base(d, model)
        scfg = recon.SolverConfig(lam=lam, max_iters=3)
        grids, products = [], []
        real_normal, real_cg = recon.normal_matrix, recon.cg_solve

        def watched_normal(*args, out=None):
            grids[-1].append(out)
            return real_normal(*args, out=out)

        def watched_cg(apply_h, *args):
            grids.append([])
            products.append([])

            def recorded(p):
                hp = apply_h(p)
                products[-1].append(hp)
                return hp
            return real_cg(recorded, *args)
        monkeypatch.setattr(recon, "normal_matrix", watched_normal)
        monkeypatch.setattr(recon, "cg_solve", watched_cg)
        if method == "cs":
            solves.cs(d, model, scfg)
        else:
            v = recon.estimate_subspace(gt.clean_series, 3)
            solves.lrcs(d, phased(model, gt.phase), v, scfg)
        assert len(grids) == 4 and all(len(g) >= 2 for g in grids)
        for solve_grids, solve_products in zip(grids, products):
            for a, b in zip(solve_grids, solve_grids[1:]):
                assert a is b and a is not None
            for a, b in zip(solve_products, solve_products[1:]):
                assert np.shares_memory(a, b)
        assert not np.shares_memory(grids[0][0], grids[1][0])


def n_column_admm(d, model, v, cfg):
    """The ADMM loop with its wavelet side on X's N columns: Psi(U) V is
    shrunk, the dual is (M, N) and the back-projection is
    Psi^H(W V^H).  The reference for the L-column form of admm_solve;
    the U-update is admm_solve's.  Returns (U, delta_u, feasibility,
    first threshold)."""
    v = np.asarray(v, dtype=model.dtype)
    vh = v.conj().T
    spec = WaveletSpec(dims=model.spatial_dims)
    start = solves.start(d, model, v, cfg)
    normal = recon._Normal(model, v)
    inner_cap = min(cfg.cg_max_iters, recon.INNER_CG_CAP)
    bu = series_forward(start.u.T, spec) @ v
    alpha = alpha0 = float(np.abs(bu).max())
    u, r, w = start.u.copy(), start.r.copy(), np.zeros_like(bu)
    rhs_prev, rho_sys, rho_prev = start.rhs, 0.0, None
    delta_u, feasibility = [], []
    for k in range(cfg.max_iters):
        rho = float(cfg.lam / alpha)
        if rho_prev is not None:
            w *= rho_prev / rho
        g = group_shrink(bu + w, alpha)
        rhs = np.multiply(series_adjoint((g - w) @ vh, spec).T, rho / 2.0, order="C")
        rhs += start.rhs
        r += rhs - rhs_prev
        r -= normal.scaled_gram(u, (rho - rho_sys) / 2.0)
        u_next, _, _ = normal.solve(k, rho / 2.0, rhs, u, r, inner_cap)
        rhs_prev, rho_sys = rhs, rho
        delta_u.append(float(np.linalg.norm(u_next - u)))
        u = u_next
        bu = series_forward(u.T, spec) @ v
        g = bu - g
        w += g
        feasibility.append(float(np.linalg.norm(g)))
        alpha /= recon.ALPHA_DECAY
        rho_prev = rho
    return u.T.astype(np.complex128), delta_u, feasibility, alpha0


class TestWaveletSideOnUColumns:
    @pytest.fixture(scope="class")
    def problem(self):
        cfg = ph.PhantomConfig(grid=(16, 16, 2), r_endo=3, r_epi=6, seed=3)
        gt = ph.build_phantom(cfg)
        labels = gt.clean_series.column_labels
        kfull = enc.coil_kspace(gt.clean_series, gt.coils, gt.phase)
        mask, d, model = make_model(gt, labels, kfull, R=2, seed=1)
        model = phased(model, gt.phase)
        scfg = recon.SolverConfig(lam=1e-2 * recon.lambda_base(d, model), max_iters=8)
        return d, model, recon.estimate_subspace(gt.clean_series, 4), scfg

    def test_matches_the_n_column_loop(self, problem):
        # equal in exact arithmetic for V with orthonormal rows; in
        # complex64 the two forms round differently: measured 1.1e-7 of
        # ||U||, 5.0e-7 relative in the step norms and 7.5e-8 in the
        # feasibility norms, over 8 iterations
        d, model, v, scfg = problem
        u, report = solves.admm(d, model, v, scfg)
        want_u, want_delta, want_feas, want_alpha0 = n_column_admm(d, model, v, scfg)
        assert np.linalg.norm(u - want_u) <= 1e-5 * np.linalg.norm(want_u)
        np.testing.assert_allclose(report.delta_u, want_delta, rtol=1e-5)
        np.testing.assert_allclose(report.feasibility, want_feas, rtol=1e-5)
        # the first threshold is taken of Psi U V in both
        assert report.alphas[0] == want_alpha0

    @pytest.mark.parametrize("scale", [1.01, 0.5])
    def test_rows_that_are_not_orthonormal_are_rejected(self, problem, scale,
                                                        monkeypatch):
        # before any solve: the L-column form holds for orthonormal rows only
        d, model, v, scfg = problem
        start = solves.start(d, model, v, scfg)

        def no_solve(*args):
            raise AssertionError("solved with a V that was rejected")
        monkeypatch.setattr(recon, "cg_solve", no_solve)
        with pytest.raises(ValidationError, match="orthonormal rows"):
            recon.admm_solve(model, v * scale, scfg, start)
