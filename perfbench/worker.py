"""One benchmark process: set up a workload, time it, check it.

``run.py`` starts this file with ``--mode setup`` (set up and exit), ``run``
(set up, time the operations, check the outputs) or ``trace`` (the same with
spans around tauforge's public functions).  It prints ``ready`` once the
set-up is done and, for ``run`` and ``trace``, one JSON object as its last
line.  tauforge is imported from ``src/`` of the checkout this file sits in.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import tauforge.cli
    import_s = time.perf_counter() - start
    if Path(tauforge.cli.__file__).resolve().parent != ROOT / "src" / "tauforge":
        print("tauforge was imported from %s, not from this checkout" % tauforge.cli.__file__,
              file=sys.stderr)
        return 2

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    rec = workloads.Recorder()
    workload.run(rec)
    result = {
        "attempted": rec.attempted,
        "failed": rec.failed,
        "wall_s": rec.wall_s,
        "op_ms_p50": 1000 * statistics.median(rec.op_seconds) if rec.op_seconds else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        layers["cli.import_s"] = (import_s, "s")
        result["layers"] = layers
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / ("trace-%s-seed%d.json.gz" % (args.workload, args.seed)))

    problems = workload.check()
    for line in problems[:20]:
        print("check failed: %s" % line, file=sys.stderr)
    result["correct"] = not problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
