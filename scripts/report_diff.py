"""Compare two ``fracrd run`` output directories, ignoring wall times.

Usage, from the root of a checkout:

    python3 scripts/report_diff.py OUT_A OUT_B

For ``report.txt`` it prints each record whose canonical line (the line
without ``wall=``) moved, with its ``measured`` value before -> after, and
a count of the records compared.  For each CSV trace it prints the largest
relative deviation of any entry, |a - b| / max(|a|, |b|), 0 for equal
entries.

The exit status is 1 when a record or a trace is in one directory only,
when a record's ``expected`` or ``tol`` differs, or when a trace changes
shape; 0 otherwise, however far a measured value or a trace entry moved.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

_RECORD = re.compile(
    r"check=(?P<check>\S+) params=(?P<params>\S+) measured=(?P<measured>\S+) "
    r"expected=(?P<expected>.*) tol=(?P<tol>\S+) pass=(?P<passed>\S+?)(?: wall=\S+)?$"
)


def read_records(path: Path) -> dict:
    """{(check, params): fields} of each record line of a report."""
    records = {}
    for line in path.read_text().splitlines():
        match = _RECORD.match(line)
        if match:
            fields = match.groupdict()
            records[fields["check"], fields["params"]] = fields
    return records


def max_rel_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries; equal entries,
    NaNs included, count 0."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.where(same, 0.0, rel), initial=0.0))


def diff_reports(dir_a: Path, dir_b: Path) -> bool:
    """Print the moved records; True when the record set or a gate differs."""
    before = read_records(dir_a / "report.txt")
    after = read_records(dir_b / "report.txt")
    broken = False
    for key in sorted(before.keys() ^ after.keys()):
        print(f"only in {dir_a if key in before else dir_b}: check={key[0]} params={key[1]}")
        broken = True
    moved = 0
    for key in sorted(before.keys() & after.keys()):
        old, new = before[key], after[key]
        if old == new:
            continue
        moved += 1
        print(f"moved: check={key[0]} params={key[1]} measured {old['measured']} -> "
              f"{new['measured']} pass {old['passed']} -> {new['passed']}")
        for gate in ("expected", "tol"):
            if old[gate] != new[gate]:
                print(f"  {gate} {old[gate]} -> {new[gate]}")
                broken = True
    print(f"records: {len(before.keys() & after.keys())} compared, {moved} moved")
    return broken


def diff_traces(dir_a: Path, dir_b: Path) -> bool:
    """Print each trace's largest relative deviation; True when a trace is
    in one directory only or changes shape."""
    names_a = {p.name for p in dir_a.glob("*.csv")}
    names_b = {p.name for p in dir_b.glob("*.csv")}
    broken = False
    for name in sorted(names_a ^ names_b):
        print(f"only in {dir_a if name in names_a else dir_b}: {name}")
        broken = True
    for name in sorted(names_a & names_b):
        a, b = (np.loadtxt(d / name, delimiter=",", skiprows=1, ndmin=2) for d in (dir_a, dir_b))
        if a.shape != b.shape:
            print(f"trace {name}: shape {a.shape} -> {b.shape}")
            broken = True
            continue
        print(f"trace {name}: max rel deviation {max_rel_deviation(a, b):.3g} ({len(a)} rows)")
    return broken


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: report_diff.py OUT_A OUT_B", file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(arg) for arg in args)
    broken = diff_reports(dir_a, dir_b)
    broken = diff_traces(dir_a, dir_b) or broken
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
