#!/usr/bin/env python3
"""Normalize a raw sensor export into the engine's plain numeric CSV.

Raw downloads (traffic loop detectors, weather station histories) tend to
arrive with a header row, a timestamp or station-id column, and rows as
time steps. This strips those and writes a headerless nodes-as-rows
matrix that ``load_signal_csv`` accepts, failing loudly on any cell that
is not a number.

Example:
    python3 scripts/prepare_dataset.py raw.csv clean.csv \
        --drop-header --drop-leading-columns 1 --transpose
"""
import argparse
import csv
import math
import sys


def prepare(in_path, out_path, drop_header=False, drop_leading=0, transpose=False) -> tuple:
    rows = []
    with open(in_path, newline="", encoding="utf-8") as fh:
        for r, row in enumerate(csv.reader(fh)):
            if not row or all(c.strip() == "" for c in row):
                continue
            if drop_header and not rows and r == 0:
                continue
            cells = row[drop_leading:]
            parsed = []
            for c, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    value = None
                if value is None or not math.isfinite(value):  # 'nan' and 'inf' parse, but no signal holds them
                    what = "cannot parse {!r} as a number" if value is None else "{!r} is not a finite number"
                    raise ValueError(f"{in_path}: row {r + 1}, column {c + 1 + drop_leading}: "
                                     + what.format(cell.strip()))
                parsed.append(value)
            if rows and len(parsed) != len(rows[0]):
                raise ValueError(f"{in_path}: row {r + 1} has {len(parsed)} values, expected {len(rows[0])}")
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{in_path}: no data rows")
    if transpose:
        rows = [list(col) for col in zip(*rows)]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(v) for v in row])
    return len(rows), len(rows[0])


def _column_count(text: str) -> int:
    """A count of columns to drop: an integer >= 0 (a negative one would keep only the last columns)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="raw CSV export")
    parser.add_argument("output", help="clean numeric CSV (nodes as rows)")
    parser.add_argument("--drop-header", action="store_true", help="skip the first row")
    parser.add_argument(
        "--drop-leading-columns", type=_column_count, default=0, metavar="N",
        help="drop the first N columns (timestamps, station ids)",
    )
    parser.add_argument(
        "--transpose", action="store_true",
        help="raw rows are time steps; flip to nodes-as-rows",
    )
    args = parser.parse_args(argv)
    try:
        n, t = prepare(
            args.input,
            args.output,
            drop_header=args.drop_header,
            drop_leading=args.drop_leading_columns,
            transpose=args.transpose,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}: {n} nodes x {t} steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
