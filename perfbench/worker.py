"""One round of one workload, in a fresh interpreter.

run.py starts this file once per round.  It imports the lab, builds the
inputs from the seed and prints READY (the end of set-up); it then reads
the oracle values as JSON on stdin, runs the round, and prints one JSON
line with the outputs' checks, the round's wall time and the process's
peak resident memory.  With --trace 1 the round runs under the tracer and
the line also carries the trace summary.  With --setup-only it exits after
READY, so run.py can time set-up alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mib() -> float:
    """Peak resident memory of this process since its exec.

    VmHWM, not ru_maxrss: ru_maxrss keeps the high-water mark of the parent
    that forked this process, and run.py holds the FFT oracle's arrays.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import stable_tv_lab

    if not Path(stable_tv_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"stable_tv_lab imported from {stable_tv_lab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import inputs
    import workloads

    run_round, state = workloads.prepare(args.workload, inputs.build(args.workload, args.seed))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    oracle = json.loads(sys.stdin.read())

    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        with tracer.span("bench.round"):
            t0 = time.perf_counter()
            checked, outputs = run_round(state, oracle)
            wall = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        checked, outputs = run_round(state, oracle)
        wall = time.perf_counter() - t0

    out = {
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib(),
        **checked,
        "digest": hashlib.sha256(json.dumps(outputs, sort_keys=True, default=float).encode()).hexdigest(),
        "env": {
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "bit_generator": type(stable_tv_lab.RngStream(0).generator.bit_generator).__name__,
            "python": sys.version.split()[0],
        },
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
