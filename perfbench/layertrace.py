"""Per-layer tracing for the benchmark, from outside the program.

Each public function listed in ``LAYER_FUNCTIONS`` is replaced by a
wrapper in every ``lrcs_cdti`` module that holds a reference to it, so a
name bound by ``from ... import`` is traced where it is called, not only
where it is defined.  One call of a wrapped function is one span.  Each
thread keeps its own stack of open spans, so the subject pool's threads
nest their spans correctly; a span's self time is its duration minus
the durations of its direct child spans.  Spans are kept in memory and
aggregated after the traced section.

Counters that the spans cannot give are read from the arguments or the
return values of the wrapped calls (CG iterations and residuals, ADMM
iterations, k-space grid bytes, container bytes).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "lrcs_cdti"

# (layer, attribute) in call-graph order.  A dotted attribute names a
# method: EncodingModel construction is traced through __post_init__.
LAYER_FUNCTIONS = (
    ("encoding", "normal_matrix"),
    ("encoding", "adjoint_matrix"),
    ("encoding", "coil_kspace"),
    ("encoding", "estimate_coil_maps"),
    ("encoding", "make_sampling_mask"),
    ("encoding", "EncodingModel.__post_init__"),
    ("transforms", "series_forward"),
    ("transforms", "series_adjoint"),
    ("transforms", "group_shrink"),
    ("recon", "admm_solve"),
    ("recon", "cg_solve"),
    ("recon", "reconstruct_cs_only"),
    ("recon", "reconstruct_lrcs"),
    ("recon", "select_lambda"),
    ("recon", "lambda_base"),
    ("recon", "estimate_phase_map"),
    ("recon", "estimate_subspace"),
    ("dti", "fit_tensors"),
    ("dti", "helix_angle"),
    ("dti", "compute_hat"),
    ("dti", "segment_aha16"),
    ("dti", "regional_means"),
    ("dti", "save_tensors"),
    ("dti", "load_tensors"),
    ("phantom", "build_phantom"),
    ("phantom", "add_noise"),
    ("phantom", "save_ground_truth"),
    ("datamodel", "write_container"),
    ("datamodel", "read_container"),
    ("stats", "summarize"),
    ("stats", "regional_pmap"),
    ("pgm", "write_map_previews"),
    ("pipeline", "prepare_subject"),
    ("pipeline", "run_subject_cells"),
    ("cli", "main"),
)

# Functions that call other wrapped functions; they also report total_s.
PARENTS = (
    "recon.admm_solve", "recon.cg_solve", "recon.reconstruct_cs_only",
    "recon.reconstruct_lrcs", "recon.select_lambda", "recon.lambda_base",
    "dti.save_tensors", "dti.load_tensors", "phantom.save_ground_truth",
    "pipeline.prepare_subject", "pipeline.run_subject_cells", "cli.main",
)

# Hot kernels; they also report per_call_ms.
KERNELS = (
    "encoding.normal_matrix", "encoding.adjoint_matrix",
    "transforms.series_forward", "transforms.series_adjoint",
    "transforms.group_shrink", "dti.fit_tensors", "dti.helix_angle",
    "dti.compute_hat",
)


def span_name(layer: str, attr: str) -> str:
    """``encoding.EncodingModel.__post_init__`` is reported as
    ``encoding.EncodingModel``."""
    return f"{layer}.{attr.split('.')[0]}"


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None
    thread: int
    start: float
    end: float
    self_s: float


class Tracer:
    """Wraps functions on :meth:`install`, restores them on
    :meth:`uninstall`; usable as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._hooks = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def on_return(self, name: str, hook) -> None:
        """Call ``hook(tracer, args, kwargs, result)`` after each call of
        ``name``, outside the span's own time."""
        self._hooks[name] = hook

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [time.perf_counter(), 0.0, name]  # start, child time, name
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][2]
                self.spans.append(Span(name, parent, threading.get_ident(),
                                       frame[0], end, duration - frame[1]))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> "Tracer":
        layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                  for layer, _ in LAYER_FUNCTIONS}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, attr in LAYER_FUNCTIONS:
            module = layers[layer]
            name = span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _grid_bytes(tracer, args, kwargs, result):
    model = args[0]
    nx, ny, nz = model.spatial_dims
    tracer.maximum("encoding.normal_matrix.grid_bytes",
                   16 * model.coils.n_coils * model.n_columns * nx * ny * nz)


def _cg_counts(tracer, args, kwargs, result):
    _, iters, residual = result
    tracer.add("recon.cg_solve.iters", iters)
    tracer.maximum("recon.cg_solve.residual_max", residual)


def _admm_iters(tracer, args, kwargs, result):
    tracer.add("recon.admm_solve.iters", len(result[1].delta_u))


def _write_bytes(tracer, args, kwargs, result):
    arrays = args[1] if len(args) > 1 else kwargs["arrays"]
    tracer.add("datamodel.write_container.bytes",
               sum(np.asarray(a).nbytes for a in arrays.values()))


def _read_bytes(tracer, args, kwargs, result):
    tracer.add("datamodel.read_container.bytes",
               sum(a.nbytes for a in result[0].values()))


def layer_tracer() -> Tracer:
    """A tracer with the benchmark's counters attached (not installed)."""
    tracer = Tracer()
    tracer.on_return("encoding.normal_matrix", _grid_bytes)
    tracer.on_return("recon.cg_solve", _cg_counts)
    tracer.on_return("recon.admm_solve", _admm_iters)
    tracer.on_return("datamodel.write_container", _write_bytes)
    tracer.on_return("datamodel.read_container", _read_bytes)
    return tracer


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(spans) -> dict[str, LayerStats]:
    """Calls, total and self time per span name, for every traced name."""
    out = {span_name(layer, attr): LayerStats() for layer, attr in LAYER_FUNCTIONS}
    for span in spans:
        entry = out.setdefault(span.name, LayerStats())
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += span.self_s
    return out


# Counters beside the per-function spans: (name, unit, better).
COUNTERS = (
    ("recon.cg_solve.iters", "count", "lower"),
    ("recon.cg_solve.residual_max", "ratio", "lower"),
    ("recon.admm_solve.iters", "count", "lower"),
    ("recon.cs_only.useful_ratio", "ratio", "higher"),
    ("encoding.normal_matrix.grid_bytes", "B", "lower"),
    ("datamodel.write_container.bytes", "B", "lower"),
    ("datamodel.read_container.bytes", "B", "lower"),
    ("pipeline.subject_wait_s", "s", "lower"),
    ("pipeline.pool_busy_ratio", "ratio", "higher"),
    ("pipeline.pool_speedup", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for layer, attr in LAYER_FUNCTIONS:
        name = span_name(layer, attr)
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
        if name in PARENTS:
            spec.append((f"{name}.total_s", "s", "lower"))
        if name in KERNELS:
            spec.append((f"{name}.per_call_ms", "ms", "lower"))
    return spec + list(COUNTERS)


def span_values(stats: dict[str, LayerStats]) -> dict[str, float]:
    """The per-function entries of :func:`per_layer_spec`."""
    values = {}
    for layer, attr in LAYER_FUNCTIONS:
        name = span_name(layer, attr)
        entry = stats[name]
        values[f"{name}.calls"] = entry.calls
        values[f"{name}.self_s"] = entry.self_s
        if name in PARENTS:
            values[f"{name}.total_s"] = entry.total_s
        if name in KERNELS:
            values[f"{name}.per_call_ms"] = (1e3 * entry.total_s / entry.calls
                                             if entry.calls else 0.0)
    return values
