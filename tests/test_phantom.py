import json
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from lrcs_cdti import datamodel as dm
from lrcs_cdti import dti
from lrcs_cdti import encoding as enc
from lrcs_cdti import phantom as ph
from lrcs_cdti.errors import ValidationError


@pytest.fixture(scope="module")
def default_truth():
    cfg = ph.PhantomConfig(seed=5)
    return cfg, ph.build_phantom(cfg)


class TestConfig:
    def test_invalid_radii(self):
        with pytest.raises(ValidationError, match="r_endo"):
            ph.PhantomConfig(r_endo=20, r_epi=12)
        with pytest.raises(ValidationError, match="r_endo"):
            ph.PhantomConfig(r_epi=40)  # beyond the edge of the 64 x 64 grid

    def test_annulus_fits_about_its_own_center(self):
        # an off-center annulus that fits is the centered one, translated
        centered = ph.build_phantom(ph.PhantomConfig())
        shifted = ph.build_phantom(ph.PhantomConfig(lv_center=(35.5, 29.5)))
        np.testing.assert_array_equal(
            shifted.myocardium_mask, np.roll(centered.myocardium_mask, (4, -2), (0, 1)))

    @pytest.mark.parametrize("center, edge", [
        ((5, 5), "5.5"),              # clipped: the wall leaves the image
        ((31.5, 23.5), "24"),         # r_epi 24 touches the edge
        ((-3, 31.5), "-2.5"),         # outside the image
        ((70, 31.5), "-6.5"),
    ])
    def test_annulus_outside_the_grid_rejected(self, center, edge):
        with pytest.raises(ValidationError,
                           match=re.escape(f"need 0 < r_endo < r_epi < {edge}, ")):
            ph.PhantomConfig(lv_center=center)

    def test_handedness_required(self):
        with pytest.raises(ValidationError, match="ha_endo"):
            ph.PhantomConfig(ha_endo=-10)

    def test_direction_count(self):
        with pytest.raises(ValidationError, match="directions"):
            ph.PhantomConfig(directions=ph.DIRECTIONS_12[:5])

    @pytest.mark.parametrize("params, message", [
        ({"md_true": -1e-3}, "md_true must be positive, got -0.001"),
        ({"md_true": 0}, "md_true must be positive, got 0"),
        ({"n_coils": 0}, "n_coils must be >= 1, got 0"),
    ])
    def test_non_physical_diffusivity_or_no_coil_rejected(self, params, message):
        with pytest.raises(ValidationError, match=message):
            dm.config_from_json(ph.PhantomConfig, params)

    @pytest.mark.parametrize("b_values", [[1000], [0, 0, 1000], []])
    def test_b_values_hold_one_b0(self, b_values):
        with pytest.raises(ValidationError, match="b_values must hold 0 exactly once"):
            dm.config_from_json(ph.PhantomConfig, {"b_values": b_values})

    def test_json_round_trip(self):
        # default, noise-free, and with the LV center set
        for cfg in (ph.PhantomConfig(),
                    ph.PhantomConfig(grid=(32, 32, 4), r_endo=6, r_epi=12, snr=None),
                    ph.PhantomConfig(lv_center=(31, 30.5))):
            text = json.dumps(dm.config_to_json(cfg))
            back = dm.config_from_json(ph.PhantomConfig, json.loads(text))
            assert back == cfg
            assert json.dumps(dm.config_to_json(back)) == text

    def test_noise_free_is_null_not_infinity(self):
        with pytest.raises(ValidationError, match="snr"):
            ph.PhantomConfig(snr=np.inf)
        assert dm.config_to_json(ph.PhantomConfig(snr=None))["snr"] is None

    def test_direction_table_is_unit_norm(self):
        g = np.array(ph.DIRECTIONS_12)
        np.testing.assert_allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
        # well-spread: no two axes closer than 30 degrees
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                c = abs(g[i] @ g[j])
                assert np.degrees(np.arccos(min(c, 1.0))) > 30


class TestGroundTruth:
    def test_ha_linear_profile_midpoint(self):
        cfg = ph.PhantomConfig(ha_endo=60.0, ha_epi=-60.0, seed=0)
        gt = ph.build_phantom(cfg)
        nx, ny, _ = cfg.grid
        xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        r = np.hypot(xs - cfg.center[0], ys - cfg.center[1])
        mid = (np.abs(r - (cfg.r_endo + cfg.r_epi) / 2) < 0.2)[:, :, None] \
            & gt.myocardium_mask
        assert mid.any()
        # td = 0.5 -> HA = 0 within the sub-voxel radius tolerance
        ha = dti.helix_angle(gt.tensors)
        assert np.nanmax(np.abs(ha[mid])) < 120 * 0.2 / 12 + 1e-9

    def test_off_lattice_center_is_measured_about_the_mask_centroid(self):
        # HA and HAT turn about the mask centroid, (31.343, 30) here, not
        # the configured center (31.3, 30), about which the slope is -1.2045
        cfg = ph.PhantomConfig(lv_center=(31.3, 30.0))
        gt = ph.build_phantom(cfg)
        res = dti.compute_hat(dti.helix_angle(gt.tensors), gt.myocardium_mask)
        assert res.global_hat == pytest.approx(-1.2061, abs=5e-5)
        assert res.global_hat == pytest.approx(gt.hat_global, rel=0.01)

    def test_hat_global_slope(self):
        cfg = ph.PhantomConfig(ha_endo=60.0, ha_epi=-60.0)
        gt = ph.build_phantom(cfg)
        assert gt.hat_global == pytest.approx(-1.2)

    def test_tensors_spd_inside_mask(self, default_truth):
        _, gt = default_truth
        evs = np.linalg.eigvalsh(gt.tensors.tensors[gt.myocardium_mask])
        assert evs.min() > 0

    def test_fit_recovers_md_exactly(self, default_truth):
        cfg, gt = default_truth
        field = dti.fit_tensors(gt.clean_series, gt.myocardium_mask)
        md = dti.mean_diffusivity(field)
        assert np.abs(md[gt.myocardium_mask] / cfg.md_true - 1).max() < 1e-9

    def test_ray_regression_r2(self, default_truth):
        cfg, gt = default_truth
        ha = dti.helix_angle(gt.tensors)
        res = dti.compute_hat(ha, gt.myocardium_mask)
        assert np.nanmin(res.ray_r2) > 0.999
        assert res.global_hat == pytest.approx(gt.hat_global, rel=0.02)

    def test_phase_map_unit_and_b0_free(self, default_truth):
        cfg, gt = default_truth
        vals = gt.phase.values
        assert np.abs(np.abs(vals) - 1).max() < 1e-12
        b0 = gt.clean_series.b0_columns
        np.testing.assert_array_equal(vals[:, b0], 1.0 + 0.0j)
        dw = vals[:, ~b0]
        assert np.abs(np.angle(dw)).max() > 0.5  # phase actually present

    def test_background_level(self, default_truth):
        _, gt = default_truth
        vols = np.abs(gt.clean_series.to_volumes())
        outside = ~gt.myocardium_mask
        np.testing.assert_allclose(vols[outside], ph.BACKGROUND_FRACTION, atol=1e-12)

    def test_low_rank_when_attenuation_uniform(self):
        # spatially constant MD with zero FA makes every DW column a
        # scalar multiple of the b=0 column; rank <= shells + 1
        cfg = ph.PhantomConfig(fa_true=0.0, seed=2)
        gt = ph.build_phantom(cfg)
        s = np.linalg.svd(np.abs(gt.clean_series.data), compute_uv=False)
        n_shells = len(set(b for b in cfg.b_values))
        assert (s[n_shells + 1:] < 1e-6 * s[0]).all()

    def test_coil_maps_cover_support(self, default_truth):
        _, gt = default_truth
        sos = (np.abs(gt.coils.maps) ** 2).sum(axis=0)
        assert sos[gt.myocardium_mask].min() > 0

    def test_deterministic(self):
        a = ph.build_phantom(ph.PhantomConfig(seed=9))
        b = ph.build_phantom(ph.PhantomConfig(seed=9))
        np.testing.assert_array_equal(a.clean_series.data, b.clean_series.data)
        np.testing.assert_array_equal(a.phase.values, b.phase.values)
        np.testing.assert_array_equal(a.coils.maps, b.coils.maps)


class TestNoise:
    def test_infinite_snr_is_identity(self, default_truth):
        _, gt = default_truth
        k = enc.coil_kspace(gt.clean_series, gt.coils, gt.phase)
        out = ph.add_noise(k, np.inf, 1.0, seed=0)
        assert out is k

    def test_deterministic_under_seed(self, default_truth):
        _, gt = default_truth
        k = enc.coil_kspace(gt.clean_series, gt.coils, gt.phase)
        a = ph.add_noise(k, 12.0, 1.0, seed=4)
        b = ph.add_noise(k, 12.0, 1.0, seed=4)
        c = ph.add_noise(k, 12.0, 1.0, seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
    def test_noise_is_added_into_the_draw_bit_for_bit(self, dtype):
        # the noise draw viewed as complex128 with the k-space added in,
        # against the three-term sum it replaced; the input is not written
        rng = np.random.default_rng(8)
        k = rng.normal(size=(2, 3, 2, 7, 6)).astype(dtype)
        if np.iscomplexobj(k):
            k += 1j * rng.normal(size=k.shape).astype(k.real.dtype)
        before = k.copy()
        got = ph.add_noise(k, 12.0, 1.5, seed=4)
        noise = np.random.default_rng([4, 202]).normal(scale=1.5 / 12.0,
                                                       size=k.shape + (2,))
        want = k + noise[..., 0] + 1j * noise[..., 1]
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(k, before) and k.dtype == dtype

    def test_chunks_from_one_stream_are_one_draw(self):
        # the chunks of a grid along its leading axis, noised in order from
        # one noise_rng as acquire noises its coils, against one draw
        rng = np.random.default_rng(8)
        k = rng.normal(size=(3, 2, 2, 5, 4)) + 1j * rng.normal(size=(3, 2, 2, 5, 4))
        whole = ph.add_noise(k, 12.0, 1.5, seed=4)
        stream = ph.noise_rng(4)
        chunks = [ph.add_noise(k[c:c + 1], 12.0, 1.5, stream) for c in range(3)]
        assert np.array_equal(np.concatenate(chunks).view(np.uint64),
                              whole.view(np.uint64))

    def test_invalid_snr(self):
        with pytest.raises(ValidationError):
            ph.add_noise(np.zeros((1, 1, 1, 4, 4), dtype=complex), -1.0, 1.0, 0)

    def test_empirical_voxelwise_snr(self):
        # constant-magnitude single-coil image: voxelwise SNR of the
        # magnitude matches the target within 10% (Monte Carlo over a
        # 64 x 64 slice)
        nx = ny = 64
        labels = dm.make_labels([0], [])
        img = np.ones((nx * ny, 1), dtype=complex)
        coils = dm.CoilMaps(np.ones((1, nx, ny, 1), dtype=complex))
        series = dm.CasoratiSeries(img, (nx, ny, 1), labels)
        k = enc.coil_kspace(series, coils, None)
        snr = 12.0
        noisy = ph.add_noise(k, snr, 1.0, seed=3)
        mask = enc.make_sampling_mask(ny, 1, labels, R=1, seed=0)
        model = enc.EncodingModel(coils, mask, None)
        recon_img = np.abs(enc.adjoint_matrix(model, noisy[np.ones_like(noisy, bool)]))
        est = recon_img.mean() / recon_img.std()
        assert est == pytest.approx(snr, rel=0.10)


def assert_bit_equal(a, b, where="truth"):
    """Every field of the dataclasses ``a`` and ``b``, recursively, is equal:
    arrays bit for bit (NaN where NaN), the rest by ``==``."""
    if is_dataclass(a):
        assert type(a) is type(b), where
        for f in fields(a):
            assert_bit_equal(getattr(a, f.name), getattr(b, f.name),
                             f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, where
        np.testing.assert_array_equal(a, b, err_msg=where, strict=True)
    else:
        assert a == b, where


def save_old_format(path, gt):
    """The container ``save_ground_truth`` wrote before it kept only the
    config and the mask: every field as an array, complex64 series and
    coils."""
    dm.write_container(
        path,
        {"clean": gt.clean_series.data.astype(np.complex64),
         "phase_real": np.real(gt.phase.values), "phase_imag": np.imag(gt.phase.values),
         "coil_maps": gt.coils.maps.astype(np.complex64),
         "ha_map": dti.helix_angle(gt.tensors),
         "md_map": gt.md_map, "mask": gt.myocardium_mask,
         "tensors": gt.tensors.tensors, "evals": gt.tensors.evals,
         "e1": gt.tensors.e1, "s0": gt.tensors.s0},
        {"kind": "ground_truth",
         "spatial_dims": list(gt.clean_series.spatial_dims),
         "column_labels": dm.labels_to_json(gt.clean_series.column_labels),
         "hat_global": gt.hat_global,
         "config": dm.config_to_json(gt.config)})


class TestGroundTruthContainer:
    def test_round_trip(self, default_truth, tmp_path):
        # the container is the config and the mask; the load rebuilds the
        # rest, bit for bit: every array field, the config and hat_global
        _, gt = default_truth
        ph.save_ground_truth(tmp_path / "gt", gt)
        assert sorted(f.name for f in (tmp_path / "gt").iterdir()) == [
            "header.json", "mask.bin"]
        assert_bit_equal(ph.load_ground_truth(tmp_path / "gt"), gt)

    def test_old_format_loads_to_the_same_phantom(self, tmp_path):
        cfg = ph.PhantomConfig(grid=(16, 16, 3), r_endo=3, r_epi=6, n_coils=2, seed=3)
        gt = ph.build_phantom(cfg)
        save_old_format(tmp_path / "gt", gt)
        assert_bit_equal(ph.load_ground_truth(tmp_path / "gt"), gt)
