import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcs_cdti import datamodel as dm
from lrcs_cdti import phantom as ph
from lrcs_cdti import pipeline, recon
from lrcs_cdti.errors import ValidationError


def simple_labels(n_dirs=3, n_averages=1):
    dirs = np.eye(3)[:n_dirs] if n_dirs <= 3 else None
    if dirs is None:
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(n_dirs, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dm.make_labels([0, 1000], [tuple(v) for v in dirs], n_averages=n_averages)


class TestCasoratiReshape:
    def test_identity_layout_2x1x1x2(self):
        a, b, c, d = 1 + 1j, 2.0, 3 - 1j, 4j
        vol = np.array([[a, b], [c, d]]).reshape(2, 1, 1, 2)
        labels = dm.make_labels([0, 1000], [(1.0, 0.0, 0.0)])
        series = dm.reshape_to_casorati(vol, labels)
        assert series.data.shape == (2, 2)
        assert np.array_equal(series.data, np.array([[a, b], [c, d]]))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        vol = rng.normal(size=(8, 8, 2, 13)) + 1j * rng.normal(size=(8, 8, 2, 13))
        labels = simple_labels(12)
        series = dm.reshape_to_casorati(vol, labels)
        back = series.to_volumes()
        assert np.array_equal(back, vol)

    def test_row_order_x_fastest(self):
        vol = np.zeros((2, 3, 2, 1), dtype=complex)
        vol[1, 2, 0, 0] = 7.0
        labels = dm.make_labels([0], [])
        series = dm.reshape_to_casorati(vol, labels)
        # j = x + nx*(y + ny*z) = 1 + 2*(2 + 3*0) = 5
        assert series.data[5, 0] == 7.0

    def test_dimension_error_names_axis(self):
        with pytest.raises(ValidationError, match="axis"):
            dm.reshape_to_casorati(np.zeros((2, 2, 2)), [])

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reshape_is_linear_bijection(self, nx, ny, nz, seed):
        rng = np.random.default_rng(seed)
        labels = dm.make_labels([0], [])
        a = rng.normal(size=(nx, ny, nz, 1)) + 1j * rng.normal(size=(nx, ny, nz, 1))
        b = rng.normal(size=(nx, ny, nz, 1))
        alpha, beta = rng.normal(size=2)
        lhs = dm.reshape_to_casorati(alpha * a + beta * b, labels).data
        rhs = (alpha * dm.reshape_to_casorati(a, labels).data
               + beta * dm.reshape_to_casorati(b, labels).data)
        np.testing.assert_array_equal(lhs, rhs)
        np.testing.assert_array_equal(
            dm.reshape_to_casorati(a, labels).to_volumes(), a)


class TestInvariants:
    def test_direction_norm_enforced(self):
        labels = [dm.ColumnLabel(1000.0, (1.0, 1.0, 0.0), 0)]
        with pytest.raises(ValidationError, match="norm"):
            dm.CasoratiSeries(np.zeros((1, 1), dtype=complex), (1, 1, 1), labels)

    def test_duplicate_labels_rejected(self):
        lab = dm.ColumnLabel(1000.0, (1.0, 0.0, 0.0), 0)
        with pytest.raises(ValidationError, match="duplicate"):
            dm.CasoratiSeries(np.zeros((1, 2), dtype=complex), (1, 1, 1), [lab, lab])

    def test_phase_map_unit_magnitude(self):
        with pytest.raises(ValidationError, match="unit magnitude"):
            dm.PhaseMap(np.full((2, 2), 0.5 + 0j))
        dm.PhaseMap(np.exp(1j * np.ones((2, 2))))  # fine


class TestContainer:
    def test_round_trip_every_dtype(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = {
            "c": (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))).astype(np.complex64),
            "f32": rng.normal(size=(5,)).astype(np.float32),
            "f64": rng.normal(size=(2, 2, 2)),
            "b": rng.normal(size=(4, 4)) > 0,
        }
        dm.write_container(tmp_path / "c", arrays, {"answer": 42})
        back, meta = dm.read_container(tmp_path / "c")
        assert meta["answer"] == 42
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert np.array_equal(back[name], arr)
            assert back[name].tobytes(order="F") == arr.tobytes(order="F")

    def test_float64_ieee_bytes(self, tmp_path):
        dm.write_container(tmp_path / "c", {"x": np.array([13.0 / 4.0])})
        payload = (tmp_path / "c" / "x.bin").read_bytes()
        assert payload == b"\x00\x00\x00\x00\x00\x00\x0a\x40"

    def test_series_header_contains_spatial_dims(self, tmp_path):
        series = dm.CasoratiSeries(np.zeros((64 * 64, 1), dtype=complex), (64, 64, 1),
                                   dm.make_labels([0], []))
        dm.save_series(tmp_path / "s", series)
        import json
        header = json.loads((tmp_path / "s" / "header.json").read_text())
        assert header["metadata"]["spatial_dims"] == [64, 64, 1]

    def test_truncated_payload(self, tmp_path):
        dm.write_container(tmp_path / "c", {"x": np.zeros(4)})
        f = tmp_path / "c" / "x.bin"
        f.write_bytes(f.read_bytes()[:-3])
        with pytest.raises(ValidationError, match="payload length mismatch"):
            dm.read_container(tmp_path / "c")

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValidationError, match="unsupported dtype"):
            dm.write_container(tmp_path / "c", {"x": np.zeros(2, dtype=np.complex128)})

    def test_phase_map_invariant_checked_on_read(self, tmp_path):
        dm.save_phase(tmp_path / "p", dm.PhaseMap(np.exp(1j * np.ones((2, 3)))))
        # corrupt one entry to magnitude 0.5
        arrays, _ = dm.read_container(tmp_path / "p")
        bad = np.array(arrays["real"], copy=True)
        bad[0, 0] = 0.5
        dm.write_container(tmp_path / "p", {"real": bad,
                                            "imag": np.zeros_like(bad)},
                           {"kind": "phase_map"})
        with pytest.raises(ValidationError, match="unit magnitude"):
            dm.load_phase(tmp_path / "p")

    def test_phase_round_trip_preserves_invariant(self, tmp_path):
        rng = np.random.default_rng(4)
        phase = dm.PhaseMap(np.exp(1j * rng.uniform(-np.pi, np.pi, size=(6, 5))))
        dm.save_phase(tmp_path / "p", phase)
        back = dm.load_phase(tmp_path / "p")
        np.testing.assert_array_equal(back.values, phase.values)

    def test_mask_round_trip_preserves_seed(self, tmp_path):
        labels = simple_labels()
        kept = np.ones((8, 1, len(labels)), dtype=bool)
        mask = dm.SamplingMask(kept, 2.0, seed=1234, column_labels=labels)
        dm.save_mask(tmp_path / "m", mask)
        back = dm.load_mask(tmp_path / "m")
        assert back.seed == 1234
        assert back.R_nominal == 2.0
        assert np.array_equal(back.kept, mask.kept)

    def test_read_selected_names_only(self, tmp_path):
        dm.write_container(tmp_path / "c", {"mask": np.ones((2, 3), bool),
                                            "big": np.zeros((4, 4))},
                           {"kind": "ground_truth"})
        arrays, meta = dm.read_container(tmp_path / "c", names=("mask",))
        assert list(arrays) == ["mask"]
        assert arrays["mask"].all() and arrays["mask"].shape == (2, 3)
        assert meta["kind"] == "ground_truth"

    def test_selected_truncated_payload_raises(self, tmp_path):
        dm.write_container(tmp_path / "c", {"mask": np.ones(8, bool),
                                            "big": np.zeros(4)})
        f = tmp_path / "c" / "mask.bin"
        f.write_bytes(f.read_bytes()[:-1])
        with pytest.raises(ValidationError, match="'mask': payload length mismatch"):
            dm.read_container(tmp_path / "c", names=("mask",))

    def test_unselected_payload_is_not_read(self, tmp_path):
        dm.write_container(tmp_path / "c", {"mask": np.ones(8, bool),
                                            "big": np.zeros(4)})
        f = tmp_path / "c" / "big.bin"
        f.write_bytes(f.read_bytes()[:-3])
        arrays, _ = dm.read_container(tmp_path / "c", names=("mask",))
        assert list(arrays) == ["mask"]
        with pytest.raises(ValidationError, match="payload length mismatch"):
            dm.read_container(tmp_path / "c")

    def test_missing_selected_name(self, tmp_path):
        dm.write_container(tmp_path / "c", {"x": np.zeros(2)})
        with pytest.raises(ValidationError, match="no 'mask' array"):
            dm.read_container(tmp_path / "c", names=("mask",))

    def test_wrong_kind_names_both_kinds(self, tmp_path):
        dm.save_phase(tmp_path / "p", dm.PhaseMap(np.ones((2, 3), complex)))
        with pytest.raises(ValidationError,
                           match="kind is 'phase_map', expected 'casorati_series'"):
            dm.load_series(tmp_path / "p")
        from lrcs_cdti import dti, encoding, phantom
        for load in (dm.load_mask, dm.load_coils, encoding.load_kspace,
                     dti.load_tensors, phantom.load_ground_truth):
            with pytest.raises(ValidationError, match="'phase_map', expected"):
                load(tmp_path / "p")
        dm.save_mask(tmp_path / "m", dm.SamplingMask(
            np.ones((8, 1, 4), bool), 1.0, 0, simple_labels()))
        with pytest.raises(ValidationError, match="'sampling_mask', expected 'phase_map'"):
            dm.load_phase(tmp_path / "m")

    def test_malformed_header(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "header.json").write_text("{nope")
        with pytest.raises(ValidationError, match="malformed header"):
            dm.read_container(tmp_path / "c")

    def test_missing_header(self, tmp_path):
        with pytest.raises(ValidationError, match="missing container header"):
            dm.read_container(tmp_path / "nowhere")


def _json_round_trip(cfg):
    text = json.dumps(dm.config_to_json(cfg))
    back = dm.config_from_json(type(cfg), json.loads(text))
    assert back == cfg
    assert json.dumps(dm.config_to_json(back)) == text


class TestConfigCodec:
    def test_solver_config_round_trip(self):
        _json_round_trip(recon.SolverConfig())
        _json_round_trip(recon.SolverConfig(lam=0.25, alpha_decay=1.2, max_iters=3,
                                            cg_max_iters=4, cg_tol=1e-5))

    def test_experiment_plan_round_trip(self, study):
        plan, _ = study
        _json_round_trip(pipeline.ExperimentPlan())
        _json_round_trip(plan)

    def test_lists_become_tuples_and_numbers_keep_their_type(self):
        plan = dm.config_from_json(pipeline.ExperimentPlan,
                                   {"R_list": [2, 4.5], "methods": ["cs"]})
        assert plan.R_list == (2.0, 4.5) and plan.methods == ("cs",)
        cfg = dm.config_from_json(ph.PhantomConfig, {"r_endo": 10, "lv_center": [31, 30]})
        assert cfg.lv_center == (31, 30) and cfg.r_endo == 10
        assert isinstance(cfg.r_endo, int)

    @pytest.mark.parametrize("obj, message", [
        ({"max_iters": True}, "SolverConfig key 'max_iters' must be int, got true"),
        ({"lam": "1"}, "SolverConfig key 'lam' must be float, got \"1\""),
        ({"rank": 3}, "unknown SolverConfig key(s): 'rank'"),
    ])
    def test_misfit_is_a_named_error(self, obj, message):
        with pytest.raises(ValidationError) as exc:
            dm.config_from_json(recon.SolverConfig, obj)
        assert str(exc.value) == message

    def test_tuple_length_and_element_types_are_checked(self):
        for value in ([16, 16], [16, 16, 3.5], [16, 16, None]):
            with pytest.raises(ValidationError, match="'grid' must be tuple"):
                dm.config_from_json(ph.PhantomConfig, {"grid": value})
