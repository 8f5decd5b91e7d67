"""Core array containers and the on-disk container format.

Conventions fixed here and relied on everywhere else:

* Voxel linearization is x fastest, then y, then z: row ``j`` of a
  Casorati matrix is voxel ``(x, y, z)`` with ``j = x + nx*(y + ny*z)``.
  In numpy terms that is Fortran order over an ``(nx, ny, nz)`` array.
* Casorati columns are diffusion encodings: b=0 columns first, then
  diffusion-weighted columns grouped by average, then direction.
* Complex arithmetic is done in complex128, except inside the solver:
  the encoding operators and the whole ADMM loop, wavelet side
  included, are complex64 (see ``encoding.EncodingModel``) and the
  solver returns complex128.  The container format stores complex data
  as complex64 and real data as float32/float64.

Container format (the interchange for all CLI stages): a directory with
``header.json`` (UTF-8) plus one raw little-endian binary payload per
array.  The header records per-array dims and dtype, the axis order
("row-major, x fastest", i.e. first axis fastest in the payload),
endianness, and free-form metadata such as ``column_labels``.
"""

from __future__ import annotations

import json
import numbers
import types
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

CONTAINER_FORMAT = "lrcs-cdti-container"
CONTAINER_VERSION = 1

# dtypes admitted to payloads, by header name
_DTYPES = {
    "complex64": np.dtype("<c8"),
    "float32": np.dtype("<f4"),
    "float64": np.dtype("<f8"),
    "bool": np.dtype("|b1"),
}
_DTYPE_NAMES = {v: k for k, v in _DTYPES.items()}


class ColumnLabel(NamedTuple):
    """One diffusion encoding: (b value, unit gradient direction, average)."""

    b_value: float
    direction: tuple[float, float, float]
    average: int

    @property
    def is_b0(self) -> bool:
        return self.b_value == 0.0


def make_labels(b_values: Sequence[float], directions: Sequence[Sequence[float]],
                n_averages: int = 1) -> list[ColumnLabel]:
    """Build the canonical column ordering: b=0 columns first, then DW
    columns grouped by average then direction."""
    labels = []
    for a in range(n_averages):
        for b in b_values:
            if b == 0:
                labels.append(ColumnLabel(0.0, (0.0, 0.0, 0.0), a))
    for a in range(n_averages):
        for b in b_values:
            if b == 0:
                continue
            for g in directions:
                gx, gy, gz = (float(v) for v in g)
                labels.append(ColumnLabel(float(b), (gx, gy, gz), a))
    return labels


def _check_labels(labels: Sequence[ColumnLabel]) -> None:
    seen = set()
    for i, lab in enumerate(labels):
        g = np.asarray(lab.direction, dtype=float)
        nrm = float(np.linalg.norm(g))
        if lab.b_value == 0.0:
            if nrm > 1e-9:
                raise ValidationError(
                    f"column {i}: b=0 column must carry the zero direction, got norm {nrm}")
        elif abs(nrm - 1.0) > 1e-9:
            raise ValidationError(
                f"column {i}: direction norm {nrm} deviates from 1 by more than 1e-9")
        key = (lab.b_value, tuple(lab.direction), lab.average)
        if key in seen:
            raise ValidationError(f"column {i}: duplicate label {key}")
        seen.add(key)


@dataclass(frozen=True)
class CasoratiSeries:
    """Complex image series as an M x N matrix (voxels x encodings)."""

    data: np.ndarray
    spatial_dims: tuple[int, int, int]
    column_labels: tuple[ColumnLabel, ...]

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise ValidationError(f"Casorati data must be 2-D, got shape {data.shape}")
        nx, ny, nz = (int(v) for v in self.spatial_dims)
        if nx * ny * nz != data.shape[0]:
            raise ValidationError(
                f"spatial_dims {self.spatial_dims} imply M={nx * ny * nz}, "
                f"but data has {data.shape[0]} rows")
        if len(self.column_labels) != data.shape[1]:
            raise ValidationError(
                f"{len(self.column_labels)} column labels for {data.shape[1]} columns")
        _check_labels(self.column_labels)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spatial_dims", (nx, ny, nz))
        object.__setattr__(self, "column_labels", tuple(self.column_labels))

    @property
    def n_voxels(self) -> int:
        return self.data.shape[0]

    @property
    def n_columns(self) -> int:
        return self.data.shape[1]

    @property
    def b0_columns(self) -> np.ndarray:
        return np.array([lab.is_b0 for lab in self.column_labels], dtype=bool)

    def to_volumes(self) -> np.ndarray:
        """Inverse Casorati reshape: (nx, ny, nz, N) tensor, x fastest."""
        nx, ny, nz = self.spatial_dims
        return self.data.reshape((nx, ny, nz, self.n_columns), order="F")

    def magnitude(self) -> np.ndarray:
        return np.abs(self.data)

    def with_data(self, data: np.ndarray) -> "CasoratiSeries":
        return CasoratiSeries(data, self.spatial_dims, self.column_labels)


def reshape_to_casorati(volume_series: np.ndarray,
                        column_labels: Sequence[ColumnLabel]) -> CasoratiSeries:
    """Rearrange an (nx, ny, nz, N) series into its Casorati matrix.

    Row j corresponds to voxel (x, y, z) with j = x + nx*(y + ny*z).
    The inverse (``CasoratiSeries.to_volumes``) restores the tensor
    bit-exactly.
    """
    vol = np.asarray(volume_series)
    if vol.ndim != 4:
        raise ValidationError(
            f"expected a 4-axis (nx, ny, nz, N) series, got {vol.ndim} axes")
    nx, ny, nz, n = vol.shape
    for axis, (extent, name) in enumerate(zip(vol.shape, ("x", "y", "z", "column"))):
        if extent < 1:
            raise ValidationError(f"axis {axis} ({name}) has zero extent")
    if len(column_labels) != n:
        raise ValidationError(
            f"axis 3 (column): {n} columns but {len(column_labels)} labels")
    data = vol.reshape((nx * ny * nz, n), order="F")
    return CasoratiSeries(data, (nx, ny, nz), tuple(column_labels))


@dataclass(frozen=True)
class SamplingMask:
    """Kept phase-encode lines per (line, slice, column)."""

    kept: np.ndarray
    R_nominal: float
    seed: int
    column_labels: tuple[ColumnLabel, ...]

    def __post_init__(self):
        kept = np.asarray(self.kept, dtype=bool)
        if kept.ndim != 3:
            raise ValidationError(f"mask must be (n_pe, nz, N), got shape {kept.shape}")
        if kept.shape[2] != len(self.column_labels):
            raise ValidationError(
                f"mask has {kept.shape[2]} columns but {len(self.column_labels)} labels")
        _check_labels(self.column_labels)
        for k, lab in enumerate(self.column_labels):
            if lab.is_b0 and not kept[:, :, k].all():
                raise ValidationError(f"b=0 column {k} is not fully sampled")
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "column_labels", tuple(self.column_labels))

    @property
    def n_pe(self) -> int:
        return self.kept.shape[0]

    @property
    def r_true(self) -> float:
        """Effective acceleration: total lines / kept lines."""
        return self.kept.size / int(np.count_nonzero(self.kept))


@dataclass(frozen=True)
class PhaseMap:
    """Unit-magnitude per-voxel, per-encoding phase factors."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValidationError(f"phase map must be M x N, got shape {values.shape}")
        dev = float(np.abs(np.abs(values) - 1.0).max()) if values.size else 0.0
        if dev > 1e-12:
            raise ValidationError(
                f"phase map entries deviate from unit magnitude by {dev:.3e} (> 1e-12)")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_angles(cls, angles: np.ndarray) -> "PhaseMap":
        return cls(np.exp(1j * np.asarray(angles, dtype=np.float64)))


@dataclass(frozen=True)
class CoilMaps:
    """Coil sensitivity maps (C, nx, ny, nz) plus root-sum-of-squares field."""

    maps: np.ndarray
    normalization: np.ndarray

    def __post_init__(self):
        maps = np.asarray(self.maps)
        norm = np.asarray(self.normalization)
        if maps.ndim != 4:
            raise ValidationError(f"coil maps must be (C, nx, ny, nz), got {maps.shape}")
        if norm.shape != maps.shape[1:]:
            raise ValidationError(
                f"normalization shape {norm.shape} does not match grid {maps.shape[1:]}")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "normalization", norm)

    @property
    def n_coils(self) -> int:
        return self.maps.shape[0]

    @property
    def spatial_dims(self) -> tuple[int, int, int]:
        return tuple(int(v) for v in self.maps.shape[1:])


# ---------------------------------------------------------------------------
# Container I/O
# ---------------------------------------------------------------------------

def config_from_json(cls, obj: dict):
    """The dataclass ``cls`` built from the JSON config ``obj``.

    Every key must be an init field of ``cls``, and every value must fit
    the field's annotation (see :func:`json_value`); lists become tuples
    where the annotation is a tuple.  The constructor's own checks then
    run on the values."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise ValidationError(f"unknown {cls.__name__} key(s): "
                              f"{', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
    return cls(**{key: json_value(value, hints[key], f"{cls.__name__} key {key!r}")
                  for key, value in obj.items()})


def config_to_json(obj) -> dict:
    """The JSON config of the dataclass ``obj``, read back exactly by
    :func:`config_from_json`."""
    return asdict(obj)


def json_value(value, hint, where: str):
    """``value`` from a JSON document as the annotation ``hint``: a list
    stands for a tuple and becomes one, an integer fits a float, and a
    boolean fits only bool.  A value that does not fit is a
    ValidationError naming ``where``."""
    out = _from_json(value, hint)
    if out is _MISFIT:
        raise ValidationError(
            f"{where} must be {_type_name(hint)}, got {json.dumps(value)}")
    return out


_MISFIT = object()


def _from_json(value, hint):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        for arg in args:
            out = _from_json(value, arg)
            if out is not _MISFIT:
                return out
        return _MISFIT
    if origin is typing.Literal:
        return value if value in args else _MISFIT
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return _MISFIT
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            return _MISFIT
        out = tuple(map(_from_json, value, args))
        return _MISFIT if _MISFIT in out else out
    if isinstance(value, bool) and hint is not bool:
        return _MISFIT
    if hint is float:
        fits = isinstance(value, numbers.Real)
    elif hint is int:
        fits = isinstance(value, numbers.Integral)
    elif hint is type(None):
        fits = value is None
    else:
        fits = isinstance(value, origin or hint)
    return value if fits else _MISFIT


def _type_name(hint) -> str:
    if typing.get_origin(hint) is typing.Literal:
        return "one of " + ", ".join(map(repr, typing.get_args(hint)))
    return hint.__name__ if isinstance(hint, type) else str(hint)


def _labels_to_json(labels: Iterable[ColumnLabel]) -> list:
    return [[lab.b_value, list(lab.direction), lab.average] for lab in labels]


def _labels_from_json(entries) -> tuple[ColumnLabel, ...]:
    return tuple(ColumnLabel(float(b), tuple(float(v) for v in g), int(a))
                 for b, g, a in entries)


def write_container(path, arrays: dict[str, np.ndarray], metadata: dict | None = None) -> None:
    """Write named arrays + metadata to a container directory.

    Payloads are raw little-endian bytes in first-axis-fastest order
    ("x fastest" for spatial arrays).  Round trips are bit-exact.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_NAMES:
            raise ValidationError(
                f"array '{name}': unsupported dtype {arr.dtype}; "
                f"supported: {sorted(_DTYPES)}")
        dtype_name = _DTYPE_NAMES[arr.dtype]
        payload = np.asfortranarray(arr.astype(_DTYPES[dtype_name], copy=False))
        (path / f"{name}.bin").write_bytes(payload.tobytes(order="F"))
        entries[name] = {
            "file": f"{name}.bin",
            "dims": list(arr.shape),
            "dtype": dtype_name,
        }
    header = {
        "format": CONTAINER_FORMAT,
        "version": CONTAINER_VERSION,
        "endianness": "little",
        "axis_order": "row-major, x fastest",
        "arrays": entries,
        "metadata": metadata or {},
    }
    (path / "header.json").write_text(json.dumps(header, indent=1, sort_keys=True),
                                      encoding="utf-8")


def read_container(path, names: Sequence[str] | None = None,
                   kind: str | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container directory; validates payload sizes against the header.

    ``names`` selects the arrays to read (default: every array); the
    payloads of the others are not opened.  ``kind``, when given, must
    equal the header's metadata ``kind``: every typed loader passes its
    own, so a container of another kind fails with a named error before
    any payload is read.
    """
    path = Path(path)
    header_path = path / "header.json"
    if not header_path.is_file():
        raise ValidationError(f"missing container header: {header_path}")
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed header {header_path}: {exc}") from exc
    if header.get("format") != CONTAINER_FORMAT:
        raise ValidationError(f"{header_path}: not a {CONTAINER_FORMAT} header")
    metadata = header.get("metadata", {})
    if kind is not None and metadata.get("kind") != kind:
        raise ValidationError(
            f"{path}: container kind is {metadata.get('kind')!r}, "
            f"expected {kind!r}")
    entries = header.get("arrays", {})
    arrays = {}
    for name in entries if names is None else names:
        if name not in entries:
            raise ValidationError(f"{path}: no '{name}' array in container")
        entry = entries[name]
        dtype_name = entry["dtype"]
        if dtype_name not in _DTYPES:
            raise ValidationError(f"array '{name}': unsupported dtype {dtype_name}")
        dims = tuple(int(v) for v in entry["dims"])
        raw = (path / entry["file"]).read_bytes()
        dtype = _DTYPES[dtype_name]
        expected = int(np.prod(dims)) * dtype.itemsize
        if len(raw) != expected:
            raise ValidationError(
                f"array '{name}': payload length mismatch "
                f"(expected {expected} bytes, found {len(raw)})")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(dims, order="F")
    return arrays, metadata


def _to_storage_complex(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).astype(np.complex64)


def save_series(path, series: CasoratiSeries) -> None:
    write_container(path, {"data": _to_storage_complex(series.data)},
                    {"kind": "casorati_series",
                     "spatial_dims": list(series.spatial_dims),
                     "column_labels": _labels_to_json(series.column_labels)})


def load_series(path) -> CasoratiSeries:
    arrays, meta = read_container(path, kind="casorati_series")
    return CasoratiSeries(arrays["data"].astype(np.complex128),
                          tuple(meta["spatial_dims"]),
                          _labels_from_json(meta["column_labels"]))


def save_mask(path, mask: SamplingMask) -> None:
    write_container(path, {"kept": mask.kept},
                    {"kind": "sampling_mask",
                     "R_nominal": mask.R_nominal,
                     "seed": mask.seed,
                     "r_true": mask.r_true,
                     "column_labels": _labels_to_json(mask.column_labels)})


def load_mask(path) -> SamplingMask:
    arrays, meta = read_container(path, kind="sampling_mask")
    return SamplingMask(arrays["kept"], float(meta["R_nominal"]), int(meta["seed"]),
                        _labels_from_json(meta["column_labels"]))


def save_phase(path, phase: PhaseMap) -> None:
    # float64 re/im keeps the unit-magnitude invariant through the round trip
    write_container(path, {"real": np.real(phase.values).astype(np.float64),
                           "imag": np.imag(phase.values).astype(np.float64)},
                    {"kind": "phase_map"})


def load_phase(path) -> PhaseMap:
    arrays, _ = read_container(path, kind="phase_map")
    return PhaseMap(arrays["real"].astype(np.float64)
                    + 1j * arrays["imag"].astype(np.float64))


def save_coils(path, coils: CoilMaps) -> None:
    write_container(path, {"maps": _to_storage_complex(coils.maps),
                           "normalization": coils.normalization.astype(np.float64)},
                    {"kind": "coil_maps"})


def load_coils(path) -> CoilMaps:
    arrays, _ = read_container(path, kind="coil_maps")
    return CoilMaps(arrays["maps"].astype(np.complex128),
                    arrays["normalization"].astype(np.float64))
