"""Run one workload of the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalogue_signoff --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work again under a tracer and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the names
and units of the metrics are the ones ``BENCHMARK.json`` lists.
"""

import argparse
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Workload name -> module of this directory that implements it.
WORKLOADS = {
    "catalogue_signoff": "catalogue",
    "soc_edit_loop": "soc_edit",
    "cohort_campaign": "cohort",
}


def _layer_metric(name: str, traced: dict):
    """A per-layer metric from a workload's traced run.

    ``<layer>_s`` and ``<layer>.s`` are that layer's folded self time;
    anything else the workload reports by name.  A layer the workload
    never reaches reads 0.
    """
    if name in traced:
        return traced[name]
    if name.endswith(("_s", ".s")):
        return traced["layers"].get(name[:-2], 0.0)
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    state = workload.State(args.seed)
    # CPU seconds since the process started: imports, PDK and inputs.
    setup_first = time.process_time()
    if args.setup_only:
        print(repr(setup_first))
        return 0

    from harness import load_spec, peak_rss_mb, setup_samples
    from stats import TAIL_BEYOND, Tally, geomean, median, tail

    spec = load_spec()
    tally = Tally()
    if args.trace:
        traced = workload.trace(state, tally)
        for layer, seconds in sorted(traced["layers"].items()):
            print(f"layer {layer:18s} {seconds:10.4f} s")
        wanted = spec["per_layer"]
        values = {m["name"]: _layer_metric(m["name"], traced) for m in wanted}
    else:
        samples = setup_samples(args.workload, args.seed, setup_first)
        values, op_times, probes = workload.measure(
            state, args.seconds, tally
        )
        values["op_geomean_probes"] = geomean(op_times) / median(probes)
        values["setup_s"] = median(samples)
        values["peak_rss_mb"] = peak_rss_mb()
        values["ok_share"] = tally.ok_share
        wanted = spec["end_to_end"]
        print("setup samples: " + " ".join(f"{s:.3f}" for s in samples))
        high = tail(op_times)
        print(f"operations: {len(op_times)}, geomean {geomean(op_times):.4f} s, "
              f"median {median(op_times):.4f} s, "
              + (f"tail p{high['percentile']:g} {high['value']:.4f} s"
                 if high else f"no tail percentile with {TAIL_BEYOND} beyond"))
        print(f"host probe: median {median(probes) * 1e3:.3f} ms over "
              f"{len(probes)} samples")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
