"""The closed-form layer's two numerical kernels, in numpy alone.

CubicSpline is the not-a-knot cubic spline through values on uniform
knots; ou interpolates the ergodic density with it and pde's GridFunction
its grid values.  quad is an adaptive 21-point Gauss-Kronrod integrator
for vectorized integrands: every pass evaluates the nodes of all the
intervals it splits in one call of the integrand, which may return one
value per node or a vector per node (then errors are max-norms).  With
these two, the lab needs nothing of scipy but scipy.special.
"""

from __future__ import annotations

import sys

import numpy as np


class CubicSpline:
    """Not-a-knot cubic spline through (knots[j], values[j]), knots uniform.

    The second derivatives M_j solve the tridiagonal moment equations, with
    M_0 and M_{n-1} eliminated by the not-a-knot conditions (the third
    derivative is continuous at the second and the second-to-last knot).
    The spacings enter as the knots give them, so a grid from np.arange,
    uniform only to rounding, gets the spline of its actual knots; the
    uniformity is used to find a point's interval in O(1).  c holds the
    coefficients of each interval's polynomial in powers of x - knots[j],
    cubic first, shape (4, n - 1).  Evaluation extends the end polynomials
    past the knots.
    """

    def __init__(self, knots, values):
        x = np.asarray(knots, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 4 or y.shape != x.shape:
            raise ValueError("need 1-D knots and values, at least 4 of each")
        h = np.diff(x)
        if not np.all(h > 0.0):
            raise ValueError("knots must increase")
        slope = np.diff(y) / h
        # rows j = 1 .. n-2: h_{j-1} M_{j-1} + 2 (h_{j-1} + h_j) M_j + h_j M_{j+1} = rhs_j
        lower, upper = h[:-1].copy(), h[1:].copy()
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 6.0 * np.diff(slope)
        # not-a-knot: M_0 = (1 + r) M_1 - r M_2 with r = h_0 / h_1, and the mirror image on the right
        r0, r1 = h[0] / h[1], h[-1] / h[-2]
        diag[0] += h[0] * (1.0 + r0)
        upper[0] -= h[0] * r0
        diag[-1] += h[-1] * (1.0 + r1)
        lower[-1] -= h[-1] * r1
        inner = _solve_tridiagonal(lower, diag, upper, rhs)
        m = np.empty_like(y)
        m[1:-1] = inner
        m[0] = (1.0 + r0) * inner[0] - r0 * inner[1]
        m[-1] = (1.0 + r1) * inner[-1] - r1 * inner[-2]
        self.knots = x
        self.c = np.stack([
            np.diff(m) / (6.0 * h),
            0.5 * m[:-1],
            slope - h * (2.0 * m[:-1] + m[1:]) / 6.0,
            y[:-1],
        ])
        self._x0 = float(x[0])
        self._inv_h = (x.size - 1) / float(x[-1] - x[0])

    def _locate(self, x):
        """(interval index, x - its left knot) for each x; NaN stays NaN."""
        x = np.asarray(x, dtype=float)
        # fmin and fmax map NaN to an end interval, where s keeps it NaN
        j = np.fmax(np.fmin(np.floor((x - self._x0) * self._inv_h), self.c.shape[1] - 1), 0.0).astype(np.intp)
        return j, x - self.knots[j]

    def __call__(self, x) -> np.ndarray:
        j, s = self._locate(x)
        c = self.c
        out = c[0][j]  # Horner in place: x may hold the 65537 points of a density grid
        for row in c[1:]:
            out *= s
            out += row[j]
        return out

    def second_derivative(self, x) -> np.ndarray:
        j, s = self._locate(x)
        return 6.0 * self.c[0][j] * s + 2.0 * self.c[1][j]


def _solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas algorithm, no pivoting (the moment equations are diagonally dominant).

    lower[0] and upper[-1] lie outside the matrix and are ignored.
    """
    c_primes, d_primes = [], []
    c_prev = d_prev = 0.0
    for a, b, c, d in zip(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()):
        den = b - a * c_prev
        c_prev = c / den
        d_prev = (d - a * d_prev) / den
        c_primes.append(c_prev)
        d_primes.append(d_prev)
    x = d_primes.pop()
    out = [x]
    for c, d in zip(reversed(c_primes[:-1]), reversed(d_primes)):
        x = d - c * x
        out.append(x)
    out.reverse()
    return np.array(out)


# 21-point Kronrod nodes on [-1, 1] and their weights; the 10-point Gauss
# rule uses the odd-indexed nodes (QUADPACK's qk21 tables).
_GK_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_GK_NODES = np.concatenate([_GK_NODES, [0.0], -_GK_NODES[::-1]])
_K_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_K_WEIGHTS = np.concatenate([_K_WEIGHTS, [0.149445554002916905664936468389821], _K_WEIGHTS[::-1]])
_G_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_G_WEIGHTS = np.concatenate([_G_WEIGHTS, _G_WEIGHTS[::-1]])
_EPS = sys.float_info.epsilon


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """(integrals, error estimates) of f on the intervals [lo_j, hi_j], from one call of f.

    integrals has shape (intervals,) for a scalar f and (intervals, k) for
    one of k components; the error estimate is QUADPACK's, taken in the
    max-norm over the components as quad_vec takes it.
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = np.asarray(f((center[:, None] + half[:, None] * _GK_NODES).ravel()), dtype=float)
    tail = fv.shape[1:]
    fv = fv.reshape(lo.size, _GK_NODES.size, -1)
    kronrod = _K_WEIGHTS @ fv
    err = half * np.abs(kronrod - _G_WEIGHTS @ fv[:, 1::2]).max(axis=1)
    # one scratch array of the size of fv: a vector integrand makes it large
    scratch = np.abs(fv)
    size = _K_WEIGHTS @ scratch
    np.subtract(fv, 0.5 * kronrod[:, None, :], out=scratch)
    dabs = half * (_K_WEIGHTS @ np.abs(scratch, out=scratch)).max(axis=1)
    # QUADPACK's scaling of |K - G| by the spread of f about its mean; err
    # stays as it is where f is constant (dabs = 0)
    ratio = 200.0 * err / np.where(dabs > 0.0, dabs, np.inf)
    err = np.where(dabs > 0.0, dabs * np.minimum(1.0, ratio ** 1.5), err)
    err = np.maximum(err, (50.0 * _EPS) * half * size.max(axis=1))
    return (half[:, None] * kronrod).reshape(lo.shape + tail), err


def quad(f, a: float, b: float, *, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8, limit: int = 50):
    """(integral, error estimate) of f over [a, b], by adaptive bisection.

    f takes a 1-D array of nodes and returns one value per node, or one
    row of k values per node for a vector-valued integral.  The intervals
    are bisected, worst error first, until the summed estimate is at most
    max(epsabs, epsrel * |integral|) (the max-norm for a vector), or until
    there are limit intervals.  Each pass bisects the fewest intervals that
    leave at most 1/8 of that tolerance unsplit, as scipy's quad_vec does,
    and evaluates all their nodes in one call of f.  Nothing is raised when
    the tolerance is missed or the estimate is not finite: the caller reads
    the error estimate that comes back.
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    vals, errs = _gk21(f, lo, hi)
    while True:
        total, err = vals.sum(axis=0), float(errs.sum())
        tol = max(epsabs, epsrel * float(np.abs(total).max()))
        if err <= tol or errs.size >= limit or not np.isfinite(err):
            break
        order = np.argsort(errs)[::-1]
        count = int(np.searchsorted(np.cumsum(errs[order]), err - tol / 8.0)) + 1
        split = order[: min(count, errs.size, limit - errs.size)]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_vals, new_errs = _gk21(f, new_lo, new_hi)
        keep = np.ones(errs.size, dtype=bool)
        keep[split] = False
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        vals, errs = np.concatenate([vals[keep], new_vals]), np.concatenate([errs[keep], new_errs])
    return (float(total) if total.ndim == 0 else total), err
