"""File-by-file comparison of two output trees, for the checks that two
runs (or a change) leave a study's outputs identical apart from their
timing fields.  Run as ``python tests/treediff.py A B`` it prints the
files that differ and exits 1 if there are any."""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

# the fields that hold a measured time: run_report.json's wall_time_s
# and summary.csv's solve_s
TIMING_FIELDS = ("solve_s", "wall_time_s")


def _without(obj, fields):
    if isinstance(obj, dict):
        return {k: _without(v, fields) for k, v in obj.items() if k not in fields}
    if isinstance(obj, list):
        return [_without(v, fields) for v in obj]
    return obj


def _content(path: Path, fields):
    """The bytes of ``path``; for JSON and CSV files, the text without
    the keys or columns named in ``fields``."""
    raw = path.read_bytes()
    if path.suffix == ".json":
        return json.dumps(_without(json.loads(raw), fields))
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(raw.decode())))
        keep = [i for i, name in enumerate(rows[0] if rows else [])
                if name not in fields]
        return [[row[i] for i in keep if i < len(row)] for row in rows]
    return raw


def differing_files(a, b, ignore=TIMING_FIELDS) -> list[str]:
    """The paths, relative to the roots ``a`` and ``b``, of the files
    that only one tree holds or whose contents differ, in sorted order.
    JSON keys and CSV columns named in ``ignore`` are left out of the
    comparison; every other file is compared byte for byte."""
    a, b = Path(a), Path(b)
    files = {root: {p.relative_to(root).as_posix() for p in root.rglob("*")
                    if p.is_file()} for root in (a, b)}
    return sorted(name for name in files[a] | files[b]
                  if name not in files[a] or name not in files[b]
                  or _content(a / name, ignore) != _content(b / name, ignore))


def main(argv=None) -> int:
    """``python tests/treediff.py A B``: print the files that differ
    between the trees A and B (timing fields left out), one a line, and
    exit 1 if there are any."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    names = differing_files(args.a, args.b)
    for name in names:
        print(name)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
