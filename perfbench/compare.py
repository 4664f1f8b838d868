"""Compare two sets of benchmark runs, or check the spread of one.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the records that `run.py --out FILE` appends, one run per
line.  For every workload this prints each side's failed and attempted
requests summed over its runs, and for every end-to-end metric in
BENCHMARK.json each side's median and quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median.  With two files it also prints the
gap of NEW's median from BASE's, signed so that positive is worse, and
REGRESSED when the gap exceeds the bound.  With one file it prints NOISY
when a spread reaches a third of its bound.  INCORRECT flags a side with a
run that was not correct, and MORE FAILURES a NEW side that failed more
requests than BASE.  Exit code 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path):
    """({workload: {metric: [values]}}, {workload: [failed, attempted, incorrect runs]},
    the runs' machine lines), over the untraced runs."""
    runs = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(lambda: [0, 0, 0])
    machines = set()
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"]:
            continue
        machines.add(f"{rec['machine']}, nproc {rec['nproc']}, Python {rec['python']}, commit {rec['commit']}")
        c = counts[rec["workload"]]
        c[0] += rec["failed"]
        c[1] += rec["attempted"]
        c[2] += not rec["correct"]
        for name, m in rec["metrics"].items():
            runs[rec["workload"]][name].append(m["value"])
    return runs, counts, machines


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    for path, (_, _, machines) in zip(argv, sides):
        for m in sorted(machines):
            print(f"{path}: {m}")
    flagged = False
    for wl in (w["name"] for w in BENCH["workloads"]):
        print(f"\n{wl}")
        line = f"  {'failed':<16}"
        for _, counts, _ in sides:
            failed, attempted, incorrect = counts.get(wl, (0, 0, 0))
            line += f"  {failed} of {attempted}" + ("  INCORRECT" if incorrect else "")
            flagged |= incorrect > 0
        if len(sides) == 2 and sides[1][1].get(wl, (0,))[0] > sides[0][1].get(wl, (0,))[0]:
            flagged = True
            line += "  MORE FAILURES"
        print(line)
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for runs, _, _ in sides:
                values = runs.get(wl, {}).get(name)
                if not values:
                    cols.append(None)
                    continue
                cols.append(stats(values) + (len(values),))
            line = f"  {name:<16}"
            for c in cols:
                line += "  (no runs)" if c is None else \
                    f"  med {c[0]:.5g} [{c[1]:.5g}, {c[2]:.5g}] spread {c[3]:.3f} (n={c[4]})"
            if len(cols) == 2 and None not in cols:
                sign = 1 if metric["better"] == "lower" else -1
                gap = sign * (cols[1][0] - cols[0][0]) / cols[0][0]
                worse = gap > bound
                flagged |= worse
                line += f"  gap {gap:+.3f} vs bound {bound}" + ("  REGRESSED" if worse else "")
            elif len(cols) == 1 and cols[0] is not None:
                noisy = cols[0][3] >= bound / 3
                flagged |= noisy
                line += f"  (bound {bound})" + ("  NOISY" if noisy else "")
            print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
