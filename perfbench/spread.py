"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload soc_edit_loop --seeds 1-10 \\
        [--out spread.json]

Runs the benchmark once per seed with tracing off, then prints for each
end-to-end metric its median and the distance between its first and
third quartiles as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  A spread of a third of the bound or more is
flagged; the benchmark is steady when nothing is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from harness import ROOT, load_spec
from stats import median, quartile_spread


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = load_spec()
    runs = []
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    steady = all(run["correct"] for run in runs)
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        spread = quartile_spread(values)
        flagged = name != "setup_s" and spread >= metric["bound"] / 3
        steady = steady and not flagged
        summary[name] = {
            "median": median(values), "spread": spread,
            "bound": metric["bound"], "values": values,
        }
        print(f"{name:18s} median {median(values):14.6g} {metric['unit']:6s} "
              f"spread {spread:7.4f} bound {metric['bound']:5.3f}"
              f"{'  <-- wide' if flagged else ''}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"workload": args.workload, "runs": runs,
                       "summary": summary}, handle, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
