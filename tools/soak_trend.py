#!/usr/bin/env python3
"""Compare nightly soak throughput artifacts against the previous run.

The nightly-soak CI job uploads one ``soak_*.txt`` per runtime/mode, each a
flat ``key=value`` stream printed by ``examples/recorded_soak`` (keys ending
in ``_events_per_sec`` are throughputs; ``soak.window_mode`` / ``soak.policy``
make the artifacts self-describing). This tool diffs the current artifacts
against the previous nightly's and FAILS (exit 1) when any throughput
regressed by more than the threshold. An artifact present only in the
previous run is listed as a ``dropped artifact`` row, and a throughput key
the previous artifact has and the current one lacks as a ``dropped key``
row; neither is a failure.

The default threshold is deliberately loose (25%): the CI runners and the
repository's 4-vCPU measurement host are VMs shared with other tenants,
where soak throughput swings by tens of percent from run to run, so
day-to-day noise is large. The gate exists to catch step-function
regressions (an accidental O(n) in the drain, a lock reintroduced on the
hot path), not percent-level drift.

Exit codes: 0 ok / no previous data, 1 regression found, 2 usage error.

    tools/soak_trend.py --prev prev_artifacts/ --curr . [--threshold 0.25]
"""

import argparse
import pathlib
import sys


def parse_soak_file(path: pathlib.Path) -> dict:
    """Parse a key=value soak artifact; returns {} if unparseable."""
    out = {}
    try:
        for line in path.read_text().splitlines():
            if "=" not in line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    except OSError as err:
        print(f"soak_trend: cannot read {path}: {err}", file=sys.stderr)
    return out


def throughputs(record: dict) -> dict:
    """The comparable metrics: every *_events_per_sec key, as float."""
    out = {}
    for key, value in record.items():
        if not key.endswith("_events_per_sec"):
            continue
        try:
            out[key] = float(value)
        except ValueError:
            pass
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prev", required=True,
                        help="directory holding the previous run's soak_*.txt")
    parser.add_argument("--curr", required=True,
                        help="directory holding this run's soak_*.txt")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that fails the job "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args()

    prev_dir = pathlib.Path(args.prev)
    curr_dir = pathlib.Path(args.curr)
    if not curr_dir.is_dir():
        print(f"soak_trend: --curr {curr_dir} is not a directory",
              file=sys.stderr)
        return 2

    curr_files = sorted(curr_dir.glob("soak_*.txt"))
    if not curr_files:
        print(f"soak_trend: no soak_*.txt under {curr_dir}", file=sys.stderr)
        return 2
    if not prev_dir.is_dir() or not sorted(prev_dir.glob("soak_*.txt")):
        # First run / expired artifacts: nothing to compare against.
        print("soak_trend: no previous artifacts; baseline recorded, "
              "nothing to compare")
        return 0

    regressions = []
    rows = []
    for curr_path in curr_files:
        prev_path = prev_dir / curr_path.name
        if not prev_path.exists():
            rows.append((curr_path.name, "-", "-", "-", "new artifact"))
            continue
        prev = throughputs(parse_soak_file(prev_path))
        curr = throughputs(parse_soak_file(curr_path))
        for key in sorted(set(prev) & set(curr)):
            if prev[key] <= 0:
                continue
            ratio = curr[key] / prev[key]
            status = "ok"
            if ratio < 1.0 - args.threshold:
                status = "REGRESSION"
                regressions.append((curr_path.name, key, prev[key], curr[key]))
            rows.append((curr_path.name, key,
                         f"{prev[key]:,.0f}", f"{curr[key]:,.0f}",
                         f"{status} ({ratio:.1%} of previous)"))
        # A throughput the soak no longer reports (a retired stage).
        for key in sorted(set(prev) - set(curr)):
            rows.append((curr_path.name, key, f"{prev[key]:,.0f}", "-",
                         "dropped key"))
    # A baseline artifact this run no longer produces: report it, so a
    # deliberately retired leg is visible, but do not fail on it.
    curr_names = {path.name for path in curr_files}
    for prev_path in sorted(prev_dir.glob("soak_*.txt")):
        if prev_path.name not in curr_names:
            rows.append((prev_path.name, "-", "-", "-", "dropped artifact"))

    name_w = max((len(r[0]) for r in rows), default=10)
    key_w = max((len(r[1]) for r in rows), default=10)
    for name, key, prev_v, curr_v, status in rows:
        print(f"{name:<{name_w}}  {key:<{key_w}}  prev={prev_v:>14}  "
              f"curr={curr_v:>14}  {status}")

    if regressions:
        print(f"\nsoak_trend: {len(regressions)} throughput metric(s) "
              f"regressed more than {args.threshold:.0%} "
              "(loose floor; shared 4-vCPU runners are noisy)",
              file=sys.stderr)
        return 1
    print("\nsoak_trend: all throughputs within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
