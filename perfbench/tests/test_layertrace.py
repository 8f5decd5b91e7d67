"""Self-tests of the benchmark's tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layertrace  # noqa: E402
from lrcs_cdti import encoding, phantom, recon, transforms  # noqa: E402


@pytest.fixture(scope="module")
def tiny_problem():
    cfg = phantom.PhantomConfig(grid=(16, 16, 3), r_endo=3, r_epi=6, n_coils=2)
    gt = phantom.build_phantom(cfg)
    labels = gt.clean_series.column_labels
    kgrid = encoding.coil_kspace(gt.clean_series, gt.coils, gt.phase)
    mask = encoding.make_sampling_mask(16, 3, labels, R=2, seed=0)
    d = encoding.extract_samples(kgrid, mask)
    model = encoding.EncodingModel(gt.coils, mask, None)
    return d, model


def _solve(d, model):
    lam = 1e-2 * recon.lambda_base(d, model)
    return recon.reconstruct_cs_only(d, model, recon.SolverConfig(lam=lam, max_iters=2))


def test_wrapped_functions_return_what_the_originals_return(tiny_problem):
    d, model = tiny_problem
    rng = np.random.default_rng(0)
    z = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
    x = rng.normal(size=(model.n_voxels, model.n_columns)).astype(np.complex128)
    plain = (transforms.group_shrink(z, 0.7), encoding.normal_matrix(model, x),
             _solve(d, model).series.data)
    originals = (recon.normal_matrix, recon.group_shrink, encoding.normal_matrix)
    with layertrace.layer_tracer() as tracer:
        assert recon.normal_matrix is not originals[0]
        traced = (transforms.group_shrink(z, 0.7), encoding.normal_matrix(model, x),
                  _solve(d, model).series.data)
    for a, b in zip(plain, traced):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (recon.normal_matrix, recon.group_shrink, encoding.normal_matrix) == originals
    assert tracer.spans


def test_names_bound_by_import_are_traced_where_called(tiny_problem):
    d, model = tiny_problem
    with layertrace.layer_tracer() as tracer:
        _solve(d, model)
    stats = layertrace.aggregate(tracer.spans)
    assert stats["encoding.normal_matrix"].calls > 0
    assert stats["transforms.series_forward"].calls > 0
    parents = {s.parent for s in tracer.spans if s.name == "encoding.normal_matrix"}
    assert parents <= {"recon.cg_solve"}
    assert tracer.counters["recon.cg_solve.iters"] > 0
    assert tracer.counters["recon.admm_solve.iters"] == 2


def test_self_times_sum_to_at_most_the_traced_wall_time(tiny_problem):
    d, model = tiny_problem
    with layertrace.layer_tracer() as tracer:
        t0 = time.perf_counter()
        _solve(d, model)
        wall = time.perf_counter() - t0
    stats = layertrace.aggregate(tracer.spans)
    assert all(s.self_s >= -1e-9 for s in tracer.spans)
    assert sum(e.self_s for e in stats.values()) <= wall
    top = [s for s in tracer.spans if s.parent is None]
    assert sum(e.self_s for e in stats.values()) == pytest.approx(
        sum(s.end - s.start for s in top), rel=1e-9)


def test_spans_of_pool_threads_nest_per_thread(tiny_problem):
    d, model = tiny_problem
    with layertrace.layer_tracer() as tracer:
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=3) as pool:
            for future in [pool.submit(_solve, d, model) for _ in range(3)]:
                future.result()
        wall = time.perf_counter() - t0
    main = threading.main_thread().ident
    threads = {s.thread for s in tracer.spans}
    assert main not in threads and len(threads) >= 2
    for thread in threads:
        own = [s for s in tracer.spans if s.thread == thread]
        assert sum(s.self_s for s in own) <= wall
        for span in own:
            if span.parent is None:
                continue
            # the parent span runs on the same thread and encloses this one
            assert any(p.name == span.parent and p.start <= span.start
                       and span.end <= p.end for p in own)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == layertrace.per_layer_spec()
    assert len(per_layer) <= 128
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert set(expected) == set(run.HEADLINE) == set(run.ON_PATH)
