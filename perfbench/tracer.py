"""Span tracer for the traced run.

The tracer wraps the lab's public functions at the names their callers look
up, so nothing inside src/ changes.  Each call records a span (name, start,
end, parent) in flat arrays kept in memory; summary() turns them into self
times per layer once the round is over.  A span's self time is its length
minus the time its child spans cover.

Layers are the modules of stable_tv_lab, with these exceptions: cli is not
called, constants is not wrapped (microseconds per call, which land in the
caller), and campaigns.coupled_ergodic_pair counts as sde, since it is an
Euler loop.  The benchmark's own code inside a round is the layer bench.
The quad that ou and pde import is wrapped as part of that module's layer.
Spans opened by worker threads, which start with an empty stack, take the
main thread's innermost open span as their parent; their cover is the
union of their intervals, so parallel children are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("rng", "stable_sampling", "sde", "distances", "ou", "pde", "campaigns")
ROOT_LAYER = "bench"  # the benchmark's own code inside a round
# Public functions that run Euler loops; sde.cpu_per_wall is measured over them.
EULER_ENTRY_POINTS = ("run_ensemble", "mc_semigroup", "integrate_bm", "integrate_stable", "coupled_ergodic_pair")


class _Buffer:
    """The spans of one thread, in flat arrays; parent -1 is a root and
    parent <= -2 is the main thread's span -parent - 2."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.work: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()  # guards name registration and new buffers
        self._local = threading.local()
        self._main = _Buffer()
        self._local.buf = self._main
        self._buffers = [self._main]
        self.cpu_s = 0.0  # process CPU time inside outermost Euler-stepping spans
        self.cpu_wall_s = 0.0  # their wall time
        self._euler_depth = 0

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
                    self.layer_of_name.append(layer)
        return nid

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def enter(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        stack = buf.stack
        idx = len(buf.start)
        if stack:
            parent = stack[-1]
        elif buf is not self._main and self._main.stack:
            parent = -2 - self._main.stack[-1]
        else:
            parent = -1
        buf.name.append(nid)
        buf.parent.append(parent)
        buf.end.append(0.0)
        stack.append(idx)
        buf.start.append(time.perf_counter())
        return buf, idx

    def leave(self, buf: _Buffer, idx: int) -> None:
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = ROOT_LAYER):
        at = self.enter(self.name_id(name, layer))
        try:
            yield
        finally:
            self.leave(*at)

    def wrap(self, fn, name: str, layer: str, work=None, classify=None, euler=False):
        """Wrapper recording a span per call.

        work(args, kwargs) -> (key, n) adds n to the count `key`; classify
        picks the span name per call; euler marks an Euler-stepping entry
        point, whose outermost calls on the main thread are timed in CPU too.
        """
        nid = self.name_id(name, layer)
        tracer, local, main, clock = self, self._local, self._main, time.perf_counter

        # enter() and leave() inlined: this wrapper runs millions of times a round
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer.name_id(classify(args, kwargs), layer) if classify else nid
            try:
                buf = local.buf
            except AttributeError:
                buf = tracer._buffer()
            stack = buf.stack
            idx = len(buf.start)
            if stack:
                parent = stack[-1]
            elif buf is not main and main.stack:
                parent = -2 - main.stack[-1]
            else:
                parent = -1
            buf.name.append(span_id)
            buf.parent.append(parent)
            buf.end.append(0.0)
            stack.append(idx)
            if work is not None:
                what, n = work(args, kwargs)
                buf.work[what] += n
            on_main = euler and buf is main
            outer = on_main and tracer._euler_depth == 0
            if outer:
                c0 = time.process_time()
            if on_main:
                tracer._euler_depth += 1
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()
                if on_main:
                    tracer._euler_depth -= 1
                if outer:
                    tracer.cpu_s += time.process_time() - c0
                    tracer.cpu_wall_s += buf.end[idx] - buf.start[idx]

        return traced

    def summary(self) -> dict:
        """Self time per layer, plus calls and inclusive time per span name."""
        bufs = self._buffers
        sizes = [len(b.start) for b in bufs]
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        start = np.concatenate([np.frombuffer(b.start, dtype=float) for b in bufs])
        end = np.concatenate([np.frombuffer(b.end, dtype=float) for b in bufs])
        names = np.concatenate([np.frombuffer(b.name, dtype=np.int32) for b in bufs]).astype(np.int64)
        raw = [np.frombuffer(b.parent, dtype=np.int32).astype(np.int64) for b in bufs]
        same = np.concatenate([p >= 0 for p in raw])
        cross = np.concatenate([p <= -2 for p in raw])
        # global indices: same-thread parents shift by their buffer's offset,
        # cross-thread parents live in the main buffer (offset 0)
        parent = np.concatenate([np.where(p >= 0, p + off, -2 - p) for p, off in zip(raw, offsets)])
        n = start.size
        dur = end - start
        covered = np.bincount(parent[same], weights=dur[same], minlength=n)
        kids_of = defaultdict(list)
        for i in np.flatnonzero(cross):
            kids_of[parent[i]].append(i)
        for p, kids in kids_of.items():
            covered[p] += _union_length(start[kids], end[kids])
        self_time = dur - covered
        layer_names = sorted(set(self.layer_of_name))
        layer_idx = np.array([layer_names.index(l) for l in self.layer_of_name], dtype=np.int64)
        per_layer = np.bincount(layer_idx[names], weights=self_time, minlength=len(layer_names))
        calls = np.bincount(names, minlength=len(self.names))
        incl = np.bincount(names, weights=dur, minlength=len(self.names))
        work = defaultdict(int)
        for b in bufs:
            for k, v in b.work.items():
                work[k] += v
        return {
            "spans": int(n),
            "threads": sum(1 for s in sizes if s),
            "root_s": float(dur[~same & ~cross].sum()),
            "self_s": {l: float(v) for l, v in zip(layer_names, per_layer)},
            "calls": {nm: int(c) for nm, c in zip(self.names, calls)},
            "inclusive_s": {nm: float(v) for nm, v in zip(self.names, incl)},
            "work": dict(work),
            "cpu_s": self.cpu_s,
            "cpu_wall_s": self.cpu_wall_s,
        }


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts)
    total, lo, hi = 0.0, -math.inf, -math.inf
    for s, e in zip(starts[order], ends[order]):
        if s > hi:
            total += hi - lo if hi > lo else 0.0
            lo, hi = s, e
        else:
            hi = max(hi, e)
    return total + (hi - lo if hi > lo else 0.0)


def _arg(fn, name: str, default=None):
    """Getter for one argument of fn, by name, from a call's (args, kwargs)."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if len(args) > pos else default

    return get


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, (tuple, list)):
        return math.prod(int(s) for s in size)
    return int(size)


def _euler_steps(t: float, dt: float) -> int:
    """Step count of the lab's Euler loop: full steps, then one that lands on t."""
    steps, remaining = 0, t
    while remaining > 1e-15:
        remaining -= min(dt, remaining)
        steps += 1
    return steps


def _draws(fn, what: str):
    size = _arg(fn, "size")
    return None if size is None else (lambda a, k: (what, _size(size(a, k))))


def _public_functions(module):
    for attr, obj in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield attr, obj


def instrument(tracer: Tracer) -> None:
    """Wrap the lab's public functions everywhere they are bound, for this process."""
    lab = {m: sys.modules[f"stable_tv_lab.{m}"] for m in LAYERS}
    replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    for layer, module in lab.items():
        for attr, fn in _public_functions(module):
            work = classify = None
            this_layer = layer
            if layer == "stable_sampling" and attr.startswith("sample_"):
                work = _draws(fn, "stable_sampling.draws")
            elif attr == "run_ensemble":
                n, cfg, t = _arg(fn, "n"), _arg(fn, "cfg"), _arg(fn, "t")
                if n and cfg and t:
                    work = lambda a, k, n=n, cfg=cfg, t=t: (
                        "sde.path_steps",
                        int(n(a, k)) * _euler_steps(float(t(a, k)), cfg(a, k).step_size(float(t(a, k)))),
                    )
            elif attr == "coupled_ergodic_pair":
                this_layer = "sde"
                n, t, dt = _arg(fn, "n"), _arg(fn, "t"), _arg(fn, "dt")
                if n and t and dt:
                    work = lambda a, k, n=n, t=t, dt=dt: (
                        "sde.path_steps",
                        int(n(a, k)) * int(round(float(t(a, k)) / float(dt(a, k)))),
                    )
            elif attr == "frac_laplacian_1d":
                f = _arg(fn, "f")
                classify = lambda a, k, f=f: f"pde.frac_laplacian_1d[{f(a, k).extension[0]}]"
            elif attr == "ergodic_density":
                alpha = _arg(fn, "alpha")
                classify = lambda a, k, alpha=alpha: (
                    "ou.ergodic_density[alpha=2]" if float(alpha(a, k)) == 2.0 else "ou.ergodic_density"
                )
            euler = attr in EULER_ENTRY_POINTS
            replace[id(fn)] = (fn, tracer.wrap(fn, f"{this_layer}.{attr}", this_layer, work, classify, euler))

    for module in [m for name, m in sys.modules.items() if name.startswith("stable_tv_lab")]:
        for attr, obj in list(vars(module).items()):
            if attr == "quad" and module in (lab["ou"], lab["pde"]):
                layer = module.__name__.rsplit(".", 1)[1]
                setattr(module, attr, tracer.wrap(obj, f"{layer}.quad", layer))
            elif id(obj) in replace and replace[id(obj)][0] is obj:
                setattr(module, attr, replace[id(obj)][1])

    rng_cls = lab["rng"].RngStream
    for method in ("uniform", "normal", "exponential"):
        fn = getattr(rng_cls, method)
        setattr(rng_cls, method, tracer.wrap(fn, f"rng.{method}", "rng", _draws(fn, "rng.draws")))
    grid_cls = lab["pde"].GridFunction
    orig = grid_cls.__dict__["from_callable"].__func__
    setattr(grid_cls, "from_callable", classmethod(tracer.wrap(orig, "pde.GridFunction.from_callable", "pde")))
