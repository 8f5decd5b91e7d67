import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcs_cdti import datamodel as dm
from lrcs_cdti import phantom as ph
from lrcs_cdti import pipeline, recon
from lrcs_cdti.errors import ValidationError


def simple_labels(n_dirs=3):
    dirs = np.eye(3)[:n_dirs] if n_dirs <= 3 else None
    if dirs is None:
        rng = np.random.default_rng(0)
        dirs = rng.normal(size=(n_dirs, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dm.make_labels([0, 1000], [tuple(v) for v in dirs])


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

    def test_non_contiguous_array_round_trips_bit_exact(self, tmp_path):
        # the layout fit_tensors returns: a C-ordered (V, 3, 3) array
        # reshaped x fastest, neither C- nor F-contiguous
        rng = np.random.default_rng(5)
        arr = rng.normal(size=(6 * 5 * 4, 3, 3)).reshape((6, 5, 4, 3, 3), order="F")
        assert not (arr.flags.c_contiguous or arr.flags.f_contiguous)
        dm.write_container(tmp_path / "c", {"t": arr})
        assert (tmp_path / "c" / "t.bin").read_bytes() == arr.tobytes(order="F")
        back, _ = dm.read_container(tmp_path / "c")
        np.testing.assert_array_equal(back["t"], arr)

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

    def test_ground_truth_config_error_names_the_container(self, tmp_path):
        cfg = ph.PhantomConfig(grid=(16, 16, 3), r_endo=3, r_epi=6, n_coils=2)
        ph.save_ground_truth(tmp_path / "gt", ph.build_phantom(cfg))
        header_path = tmp_path / "gt" / "header.json"
        header = json.loads(header_path.read_text())
        header["metadata"]["config"]["bogus"] = 1
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValidationError) as exc:
            ph.load_ground_truth(tmp_path / "gt")
        assert str(exc.value) == (f"{tmp_path / 'gt'} metadata key 'config': "
                                  f"unknown PhantomConfig key(s): 'bogus'")

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
        dm.save_coils(tmp_path / "c", dm.CoilMaps(np.ones((1, 2, 2, 2), complex)))
        with pytest.raises(ValidationError,
                           match="kind is 'coil_maps', expected 'casorati_series'"):
            dm.load_series(tmp_path / "c")
        from lrcs_cdti import dti, encoding
        for load in (encoding.load_kspace, dti.load_tensors, ph.load_ground_truth):
            with pytest.raises(ValidationError, match="'coil_maps', expected"):
                load(tmp_path / "c")
        dm.save_series(tmp_path / "s", dm.CasoratiSeries(
            np.ones((8, 4), complex), (2, 2, 2), simple_labels()))
        with pytest.raises(ValidationError,
                           match="'casorati_series', expected 'coil_maps'"):
            dm.load_coils(tmp_path / "s")

    def test_malformed_header(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "header.json").write_text("{nope")
        with pytest.raises(ValidationError, match="malformed header"):
            dm.read_container(tmp_path / "c")

    def test_missing_header(self, tmp_path):
        with pytest.raises(ValidationError, match="missing container header"):
            dm.read_container(tmp_path / "nowhere")


class TestTable:
    # one value of each kind of float, and the text write_table gives it
    FLOATS = [(0.1, "0.1"), (1 / 3, "0.3333333333333333"),
              (np.float64(0.1), "0.1"), (np.float64(-0.0), "-0.0"),
              (np.float32(0.1), "0.10000000149011612"),
              (np.float32(1e-8), "9.99999993922529e-09"),
              (np.nan, "nan"), (np.float64(np.nan), "nan"),
              (np.inf, "inf"), (np.float32(-np.inf), "-inf"), (-0.0, "-0.0")]

    def test_golden_bytes(self, tmp_path):
        header = ["i", "x", "ok", "note"]
        seq = [(i, x, i % 2 == 0, "") for i, (x, _) in enumerate(self.FLOATS)]
        dm.write_table(tmp_path / "seq.csv", header, seq)
        dm.write_table(tmp_path / "dict.csv", header,
                       [dict(zip(reversed(header), reversed(row))) for row in seq])
        raw = (tmp_path / "seq.csv").read_bytes()
        assert raw == (tmp_path / "dict.csv").read_bytes()
        assert raw == ("i,x,ok,note\r\n" + "".join(
            f"{i},{text},{i % 2 == 0},\r\n"
            for i, (_, text) in enumerate(self.FLOATS))).encode()

    def test_every_float_reads_back_exactly(self, tmp_path):
        dm.write_table(tmp_path / "t.csv", ["x"], [(x,) for x, _ in self.FLOATS])
        raw = (tmp_path / "t.csv").read_text()
        cells = [row[0] for row in csv.reader(io.StringIO(raw))][1:]
        assert not any(cell.startswith("np.") for cell in cells)
        for cell, (x, _) in zip(cells, self.FLOATS, strict=True):
            back, want = float(cell), float(x)
            assert back == want or math.isnan(back) and math.isnan(want)
            assert math.copysign(1, back) == math.copysign(1, want)

    @pytest.mark.parametrize("row", [[1, 2, 3], {"a": 1}], ids=["sequence", "dict"])
    def test_a_row_of_another_length_is_a_named_error(self, tmp_path, row):
        with pytest.raises(ValidationError,
                           match=f"a row of {len(row)} cells under a header of 2"):
            dm.write_table(tmp_path / "t.csv", ["a", "b"], [["x", "y"], row])
        assert not (tmp_path / "t.csv").exists()


def _json_round_trip(cfg):
    text = json.dumps(dm.config_to_json(cfg))
    back = dm.config_from_json(type(cfg), json.loads(text))
    assert back == cfg
    assert json.dumps(dm.config_to_json(back)) == text


class TestConfigCodec:
    def test_solver_config_round_trip(self):
        _json_round_trip(recon.SolverConfig())
        _json_round_trip(recon.SolverConfig(lam=0.25, max_iters=3, cg_max_iters=4))

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
