"""8-bit binary PGM (P5) previews with explicit window/level.

Values are mapped linearly from [lo, hi] to 0..255 and clipped; NaN
renders as 0.  :func:`write_map_previews` writes one image per slice.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError


def write_pgm(path, plane: np.ndarray, lo: float, hi: float) -> None:
    arr = np.asarray(plane, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"PGM preview needs a 2-D plane, got {arr.shape}")
    if not hi > lo:
        raise ValidationError(f"window requires hi > lo, got [{lo}, {hi}]")
    scaled = (np.nan_to_num(arr, nan=lo) - lo) / (hi - lo)
    img = np.clip(np.rint(scaled * 255), 0, 255).astype(np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # PGM rows are written top to bottom; rows = y (descending), cols = x
    raster = img.T[::-1]
    header = f"P5\n{raster.shape[1]} {raster.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + raster.tobytes())


# documented window/level per preview kind
WINDOWS = {
    "ha": (-90.0, 90.0),          # degrees
    "md": (0.0, 3.0e-3),          # mm^2/s
    "fa": (0.0, 1.0),
}


def write_map_previews(out_dir, kind: str, volume: np.ndarray) -> list[Path]:
    """One PGM per slice named ``<kind>_z<k>.pgm``, windowed by ``WINDOWS``."""
    lo, hi = WINDOWS[kind]
    out_dir = Path(out_dir)
    paths = []
    for z in range(volume.shape[2]):
        p = out_dir / f"{kind}_z{z}.pgm"
        write_pgm(p, volume[:, :, z], lo, hi)
        paths.append(p)
    return paths
