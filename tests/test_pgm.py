import numpy as np
import pytest

from lrcs_cdti import pgm
from lrcs_cdti.errors import ValidationError


def read_pgm(path):
    """(header fields, raster rows top to bottom) of a binary P5 file."""
    raw = path.read_bytes()
    magic, dims, maxval, payload = raw.split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    return (magic, width, height, int(maxval)), payload


def test_header_and_payload_length(tmp_path):
    plane = np.zeros((5, 3))       # nx = 5, ny = 3
    pgm.write_pgm(tmp_path / "p.pgm", plane, 0.0, 1.0)
    (magic, width, height, maxval), payload = read_pgm(tmp_path / "p.pgm")
    assert (magic, width, height, maxval) == (b"P5", 5, 3, 255)
    assert len(payload) == 5 * 3


def test_orientation_first_row_is_highest_y(tmp_path):
    # value 10 y + x: the raster's first row is y = ny - 1, x left to right
    nx, ny = 4, 3
    plane = 10.0 * np.arange(ny)[None, :] + np.arange(nx)[:, None]
    pgm.write_pgm(tmp_path / "p.pgm", plane, 0.0, 255.0)
    _, payload = read_pgm(tmp_path / "p.pgm")
    raster = np.frombuffer(payload, dtype=np.uint8).reshape(ny, nx)
    np.testing.assert_array_equal(raster[0], [20, 21, 22, 23])
    np.testing.assert_array_equal(raster[-1], [0, 1, 2, 3])


def test_window_maps_and_clips(tmp_path):
    plane = np.array([[-5.0], [-1.0], [0.0], [1.0], [3.0], [9.0]])
    pgm.write_pgm(tmp_path / "p.pgm", plane, -1.0, 3.0)
    _, payload = read_pgm(tmp_path / "p.pgm")
    # lo -> 0, hi -> 255, the midpoint rounds to 128, outside is clipped
    assert list(payload) == [0, 0, 64, 128, 255, 255]


def test_nan_renders_as_zero(tmp_path):
    plane = np.array([[np.nan], [2.0]])
    pgm.write_pgm(tmp_path / "p.pgm", plane, 1.0, 2.0)
    _, payload = read_pgm(tmp_path / "p.pgm")
    assert list(payload) == [0, 255]


def test_three_dimensional_plane_rejected(tmp_path):
    with pytest.raises(ValidationError, match="2-D plane"):
        pgm.write_pgm(tmp_path / "p.pgm", np.zeros((2, 2, 2)), 0.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
def test_empty_window_rejected(tmp_path, lo, hi):
    with pytest.raises(ValidationError, match="hi > lo"):
        pgm.write_pgm(tmp_path / "p.pgm", np.zeros((2, 2)), lo, hi)
    assert not (tmp_path / "p.pgm").exists()


def test_map_previews_one_file_per_slice(tmp_path):
    volume = np.linspace(0.0, 1.0, 4 * 3 * 5).reshape(4, 3, 5)
    paths = pgm.write_map_previews(tmp_path / "prev", "fa", volume)
    assert paths == [tmp_path / "prev" / f"fa_z{z}.pgm" for z in range(5)]
    assert sorted(p.name for p in (tmp_path / "prev").iterdir()) == \
        sorted(p.name for p in paths)
    for z, path in enumerate(paths):
        (_, width, height, _), payload = read_pgm(path)
        assert (width, height) == (4, 3)
        expected = np.clip(np.rint(volume[:, :, z].T[::-1] * 255), 0, 255)
        np.testing.assert_array_equal(
            np.frombuffer(payload, dtype=np.uint8).reshape(3, 4), expected)
