"""One round of each workload: the calls into the lab, then the checks.

prepare() builds a workload's program inputs (set-up); the round function
it returns makes every call into the lab and checks every output against
the oracle values run.py computed apart from the program.  Program
functions are looked up as module attributes at call time, so the traced
run sees the tracer's wrappers.

An operation is one alpha of a campaign, one driver of gradient-probe or
one symbol point.  It fails when it raises or misses any of its checks.  A
campaign check whose name ends in [label] belongs to the operation of that
label; one without a label (a fit over all alphas) belongs to the last.
Checks named in LEFT_OUT are recorded but belong to no operation.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import traceback

import numpy as np

from stable_tv_lab import campaigns, pde

from inputs import key

# Monte Carlo checks allow K_SIGMA standard errors; at 5 sigma a correct
# program misses any of 10^4 such checks with probability below 1 %.
K_SIGMA = 5.0
TV_TOL = 1e-5  # exact TV against the FFT oracle; the two agree to ~1e-7
F0_TOL = 1e-7  # Poisson solution at 0 against 30-digit mpmath
SYMBOL_RTOL = 1e-3  # fractional Laplacian symbol, relative

# Campaign checks that fail on some seeds of a correct program: recorded
# in each round's detail but counted in no operation, since an operation
# must pass or fail alike on every seed.
LEFT_OUT = {
    # Fits the slope of the cos/sin TV lower bound against 2 - alpha and
    # asks for 1.0 +- 0.15.  Over alpha in {1.7, ..., 1.9} the noise-free
    # statistic (closed-form Euler-chain CF gaps, oracles.coupled_cf_gap)
    # has slope 1.087, and at n = 100 000 the fitted slope varies by 0.07
    # from seed to seed, so some seeds land above 1.15.
    "ergodic-tv-slope",
}


def _check(name, value, expected, tolerance) -> dict:
    value, expected, tolerance = float(value), float(expected), float(tolerance)
    ok = math.isfinite(value) and abs(value - expected) <= tolerance
    return {"name": name, "value": value, "expected": expected, "tolerance": tolerance, "pass": ok}


def _label(x) -> str:
    try:
        return repr(float(x))
    except ValueError:
        return str(x)


class _Ops:
    """The operations of one round, each with its checks or its error."""

    def __init__(self):
        self.ops: list[dict] = []
        self.left_out: list[dict] = []

    def add(self, name: str, label) -> dict:
        op = {"name": name, "label": _label(label), "checks": [], "error": None}
        self.ops.append(op)
        return op

    def guard(self, ops: list[dict], fn, *args):
        """fn(*args), or None with the traceback recorded on each op if it raises."""
        try:
            return fn(*args)
        except Exception:  # a program fault fails these operations, not the run
            err = traceback.format_exc(limit=4)
            for op in ops:
                op["error"] = err
            return None

    def assign(self, ops: list[dict], report) -> None:
        by_label = {op["label"]: op for op in ops}
        for c in report.checks:
            check = {k: c[k] for k in ("name", "value", "expected", "tolerance", "pass")}
            if c["name"] in LEFT_OUT:
                self.left_out.append(check)
                continue
            m = re.search(r"\[([^\]]*)\]$", c["name"])
            label = _label(m.group(1).removeprefix("alpha=")) if m else None
            by_label.get(label, ops[-1])["checks"].append(check)

    def result(self) -> dict:
        for op in self.ops:
            op["failed"] = op["error"] is not None or not all(c["pass"] for c in op["checks"])
        return {"ops": self.ops, "left_out": self.left_out}


def _config(spec: dict) -> campaigns.ExperimentConfig:
    return campaigns.ExperimentConfig(
        campaign=spec["campaign"], seed=spec["seed"], params=spec["params"], workers=spec["workers"]
    )


def _tap_coupled_pairs():
    """Record the endpoints the tv-theorem campaign simulates, per alpha."""
    original = campaigns.coupled_ergodic_pair
    alpha_of = lambda a, k: inspect.signature(original).bind(*a, **k).arguments["alpha"]
    seen = []

    # wraps: the tracer then takes the tap for campaigns.coupled_ergodic_pair
    # (its sde layer) and reads n, t and dt from the original's signature.
    @functools.wraps(original)
    def tapped(*args, **kwargs):
        x, y = original(*args, **kwargs)
        seen.append((float(alpha_of(args, kwargs)), x, y))
        return x, y

    campaigns.coupled_ergodic_pair = tapped
    return seen


def _ergodic_round(state, oracle):
    cfg, seen = state
    p = cfg.params
    ops = _Ops()
    alpha_ops = [ops.add(f"tv-theorem[{a}]", a) for a in sorted(p["alpha"])]
    report = ops.guard(alpha_ops, campaigns.run_campaign, cfg)
    outputs = {}
    if report is not None:
        ops.assign(alpha_ops, report)
        by_label = {op["label"]: op for op in alpha_ops}
        for alpha, _lb, _stv, tv_exact in report.data["tv_theorem"][1:]:
            by_label[_label(alpha)]["checks"].append(
                _check(f"exact-tv-vs-fft[{alpha}]", tv_exact, oracle["tv"][key(alpha)], TV_TOL)
            )
        pairs = {alpha: (x, y) for alpha, x, y in seen}
        for alpha in sorted(p["alpha"]):
            for xi in p["xi"]:
                ref = oracle["cf"][key(alpha, xi)]
                mean, tol = math.nan, 0.0  # fails unless the tap saw this alpha
                if alpha in pairs:
                    x, y = pairs[alpha]
                    d = np.cos(xi * x) - np.cos(xi * y)
                    mean, se = float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size))
                    tol = K_SIGMA * se + abs(ref["chain"] - ref["exact"])
                by_label[_label(alpha)]["checks"].append(
                    _check(f"coupled-cf-gap[{alpha},{xi}]", mean, ref["exact"], tol)
                )
                outputs[key(alpha, xi)] = mean
        outputs["data"] = report.data
    seen.clear()
    return ops.result(), outputs


def _semigroup_round(cfg, oracle):
    ops = _Ops()
    driver_ops = [ops.add("gradient-probe[brownian]", "brownian")] + [
        ops.add(f"gradient-probe[stable,{a}]", f"stable,{a}") for a in cfg.params["alpha"]
    ]
    report = ops.guard(driver_ops, campaigns.run_campaign, cfg)
    outputs = {}
    if report is not None:
        ops.assign(driver_ops, report)
        rows = report.data["gradient_probe"][1:]
        got = {key(driver, alpha, t): g for driver, alpha, t, g in rows}
        by_label = {op["label"]: op for op in driver_ops}
        for k, ref in oracle["grad"].items():
            driver, alpha, _t = k.split(",")
            op = by_label["brownian" if driver == "brownian" else f"stable,{alpha}"]
            tol = K_SIGMA * ref["se"] + abs(ref["chain"] - ref["exact"])
            op["checks"].append(_check(f"fd-gradient[{k}]", got.get(k, math.nan), ref["exact"], tol))
        outputs["data"] = report.data
    return ops.result(), outputs


def _closed_form_round(state, oracle):
    ou_cfg, poisson_cfg, symbol = state
    ops = _Ops()
    outputs = {}

    ou_ops = [ops.add(f"ou-rate[{a}]", a) for a in sorted(ou_cfg.params["alpha"])]
    report = ops.guard(ou_ops, campaigns.run_campaign, ou_cfg)
    if report is not None:
        ops.assign(ou_ops, report)
        by_label = {op["label"]: op for op in ou_ops}
        for alpha, tv, _lb, _ratio in report.data["ou_rate"][1:]:
            by_label[_label(alpha)]["checks"].append(
                _check(f"exact-tv-vs-fft[{alpha}]", tv, oracle["tv"][key(alpha)], TV_TOL)
            )
        outputs["ou_rate"] = report.data

    poisson_ops = [ops.add("poisson-rate[2.0]", 2.0)] + [
        ops.add(f"poisson-rate[{a}]", a) for a in sorted(poisson_cfg.params["alpha"])
    ]
    report = ops.guard(poisson_ops, campaigns.run_campaign, poisson_cfg)
    if report is not None:
        ops.assign(poisson_ops, report)
        f0 = {_label(alpha): f for alpha, x, f, _res in report.data["poisson"][1:] if x == 0.0}
        for op in poisson_ops:
            op["checks"].append(
                _check(f"f-at-0-vs-mpmath[{op['label']}]", f0.get(op["label"], math.nan),
                       oracle["f0"][key(float(op["label"]))], F0_TOL)
            )
        outputs["poisson_rate"] = report.data

    grid = symbol["grid"]
    for alpha, xi, x in symbol["points"]:
        op = ops.add(f"symbol[{alpha},{xi},{x}]", f"{alpha},{xi},{x}")
        f = ops.guard([op], pde.GridFunction.from_callable, lambda y, xi=xi: np.cos(xi * y), grid)
        got = None if f is None else ops.guard([op], pde.frac_laplacian_1d, f, alpha, x)
        if got is not None:
            want = oracle["symbol"][key(alpha, xi, x)]
            op["checks"].append(
                _check(f"symbol[{alpha},{xi},{x}]", got, want, SYMBOL_RTOL * abs(want) + 1e-6)
            )
            outputs[key(alpha, xi, x)] = got
    return ops.result(), outputs


def prepare(workload: str, inp: dict):
    """(round function, its state): the program inputs, built at set-up."""
    if workload == "ergodic-tv-mc":
        return _ergodic_round, (_config(inp), _tap_coupled_pairs())
    if workload == "semigroup-mc":
        return _semigroup_round, _config(inp)
    if workload == "closed-form":
        ou_cfg = campaigns.ExperimentConfig(campaign="ou-rate", seed=inp["seed"], params=inp["ou_rate"])
        poisson_cfg = campaigns.ExperimentConfig(
            campaign="poisson-rate", seed=inp["seed"], params=inp["poisson_rate"]
        )
        start, stop, step = inp["symbol"]["grid"]
        symbol = {
            "grid": np.arange(start, stop + step / 2.0, step),
            "points": [tuple(p) for p in inp["symbol"]["points"]],
        }
        return _closed_form_round, (ou_cfg, poisson_cfg, symbol)
    raise ValueError(f"unknown workload {workload!r}")
