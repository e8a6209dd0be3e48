"""Benchmark of stable-tv-lab: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the lab is imported from its src/.  The
workloads are ergodic-tv-mc, semigroup-mc and closed-form (see inputs.py
and README.md).  The run computes the oracle values, then starts one fresh
interpreter (worker.py) per round until the rounds have measured S seconds;
every round is the same set of operations, checked against the oracles.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
untraced rounds for S seconds, then traced rounds for S seconds, and
reports the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; a copy of
every round's detail is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 4  # set-up is timed at least this often per run; the median is reported

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "rng.draws": "count",
    "rng.ns_per_draw": "ns",
    "rng.self_s": "s",
    "stable_sampling.draws": "count",
    "stable_sampling.ns_per_draw": "ns",
    "stable_sampling.self_s": "s",
    "sde.path_steps": "count",
    "sde.ns_per_path_step": "ns",
    "sde.cpu_per_wall": "s/s",
    "sde.self_s": "s",
    "distances.self_s": "s",
    "ou.quad_calls": "count",
    "ou.ergodic_density_s_per_alpha": "s",
    "ou.self_s": "s",
    "pde.quad_calls": "count",
    "pde.poisson_grid_s": "s",
    "pde.frac_laplacian_linear_ms_per_point": "ms",
    "pde.frac_laplacian_callable_ms_per_point": "ms",
    "pde.self_s": "s",
    "campaigns.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}
COUNTS = ("rng.draws", "stable_sampling.draws", "sde.path_steps", "ou.quad_calls", "pde.quad_calls")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS/OpenMP thread: the lab's own `workers` is the only parallelism.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(workload, seed, trace, setup_only, oracle, deadline):
    """One fresh interpreter: (set-up seconds, round result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "READY":
            proc.kill()
            proc.wait()
            raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
        out, _ = proc.communicate(None if setup_only else json.dumps(oracle),
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran past the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    if setup_only:
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


def run_rounds(workload, seed, trace, seconds, oracle, deadline, setups):
    """Rounds until their walls add up to `seconds` (at least one)."""
    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        if rounds and time.monotonic() + max(r["wall_s"] for r in rounds) + 5.0 > deadline:
            break
        setup, result = start_worker(workload, seed, trace, False, oracle, deadline)
        setups.append(setup)
        rounds.append(result)
    return rounds


def layer_metrics(trace: dict, wall: float) -> dict:
    self_s, calls, incl, work = trace["self_s"], trace["calls"], trace["inclusive_s"], trace["work"]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for layer in ("rng", "stable_sampling", "sde", "distances", "ou", "pde", "campaigns", "bench"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in ("rng", "stable_sampling"):
        m[f"{layer}.draws"] = work.get(f"{layer}.draws", 0)
        m[f"{layer}.ns_per_draw"] = per(self_s.get(layer, 0.0), m[f"{layer}.draws"], 1e9)
    m["sde.path_steps"] = work.get("sde.path_steps", 0)
    m["sde.ns_per_path_step"] = per(self_s.get("sde", 0.0), m["sde.path_steps"], 1e9)
    m["sde.cpu_per_wall"] = per(trace["cpu_s"], trace["cpu_wall_s"])
    m["ou.quad_calls"] = calls.get("ou.quad", 0)
    m["ou.ergodic_density_s_per_alpha"] = per(incl.get("ou.ergodic_density", 0.0), calls.get("ou.ergodic_density", 0))
    m["pde.quad_calls"] = calls.get("pde.quad", 0)
    m["pde.poisson_grid_s"] = per(incl.get("pde.poisson_solution_grid", 0.0), calls.get("pde.poisson_solution_grid", 0))
    for ext in ("linear", "callable"):
        name = f"pde.frac_laplacian_1d[{ext}]"
        m[f"pde.frac_laplacian_{ext}_ms_per_point"] = per(incl.get(name, 0.0), calls.get(name, 0), 1e3)
    m["trace.wall_s"] = wall
    return m


def self_sum_problem(trace: dict) -> str | None:
    """Layer self times must add up to the root span; more only with worker threads."""
    total, root = sum(trace["self_s"].values()), trace["root_s"]
    if trace["threads"] == 1 and abs(total - root) > 1e-6 * root + 1e-9:
        return f"self times add up to {total:.6f} s, root span is {root:.6f} s"
    if total < root * (1.0 - 1e-6):
        return f"self times add up to {total:.6f} s, less than the root span {root:.6f} s"
    return None


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "stable_tv_lab" / "__init__.py").is_file():
        print(f"no lab to measure: {ROOT / 'src' / 'stable_tv_lab'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    inp = inputs.build(args.workload, args.seed)
    oracle = oracles.compute(args.workload, inp)

    setups: list[float] = []
    try:
        plain = run_rounds(args.workload, args.seed, 0, args.seconds, oracle, deadline, setups)
        traced = []
        if args.trace:
            traced = run_rounds(args.workload, args.seed, 1, args.seconds, oracle, deadline, setups)
        else:
            while len(setups) < SETUP_SAMPLES:
                setups.append(start_worker(args.workload, args.seed, 0, True, oracle, deadline)[0])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    problems = []
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("outputs differ between rounds of one seed")
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(op["failed"] for r in rounds for op in r["ops"])

    plain_wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        per_round = [layer_metrics(r["trace"], r["wall_s"]) for r in traced]
        for name in COUNTS:
            if len({m[name] for m in per_round}) != 1:
                problems.append(f"{name} differs between traced rounds")
        problems += [p for r in traced if (p := self_sum_problem(r["trace"]))]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
        values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / plain_wall
        units = PER_LAYER
    else:
        values = {
            "wall_s": plain_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": inputs.nproc(), "git_sha": git_sha(), "env": rounds[0]["env"], "inputs": inp,
        "setup_s": setups, "problems": problems, "metrics": metrics,
        "rounds": [{k: v for k, v in r.items() if k != "env"} for r in rounds],
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    for r in rounds:
        for op in r["ops"]:
            if op["failed"]:
                missed = [c["name"] for c in op["checks"] if not c["pass"]]
                print(f"FAILED {op['name']}: {op['error'] or 'missed ' + ', '.join(missed)}", file=sys.stderr)
        for c in r["left_out"]:
            if not c["pass"]:
                print(f"left out of the count, missed: {c['name']} = {c['value']:.6g}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if args.trace:
        for r in traced:
            t = r["trace"]
            print(f"self times add up to {sum(t['self_s'].values()):.4f} s of a {r['wall_s']:.4f} s traced round "
                  f"({t['spans']} spans, {t['threads']} thread(s))", file=sys.stderr)

    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
