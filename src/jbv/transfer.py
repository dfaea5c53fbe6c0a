"""q-step transfer blocks, long ordered products and coupling diagnostics.

Block m is the ordered one-step product over indices mq+1 .. (m+1)q (highest
index leftmost).  A long product travels between calls as a `Scan`, a
mantissa times 2**e with an integer e, so log-norms stay available far past
float overflow.

`transfer_scan` is the kernel behind every long product.  It takes one
energy, a lane axis of shape (), or an energy axis of E energies (lanes),
each lane with its own product, exponent and rescaling in a trailing array
axis.  The coefficient run is one for every lane, of shape (L,), or one per
lane, of shape (L, E), so lanes may scan different windows at different
energies; the shape alone tells them apart.  A kernel call takes CHUNK // E
steps (CHUNK = 20480, one energy counting as E = 1, at least one step) and
carries its products, exponents included, to the next.  Every array the
size of a call, in the kernel and in `log_norm2`, `_log_sums` and
`GrowthScanner._advance`, is taken from a workspace (`_take`; not the few
of a complex step past float range, nor of lanes whose log-sums part
ways): one per thread, each buffer grown to its largest use, at most
max(CHUNK, E) lane-steps, and then kept, about 95 bytes a lane-step on a
real scan (1.9 MB at CHUNK), so a process's later calls allocate none of
them and take no page faults.  So a Scan's prefixes are views of the workspace,
valid until the thread's next kernel call, and a call copies its carry out
of it.  E lanes of L steps in one call cost one call's overhead and E L
times the per-step cost below, so many short runs are cheapest as the
lanes of one call.  A step ((p, q), (r, 0)) is kept as its three nonzero
entries, one array each, and no stack of step matrices is built.  Over
its L steps a call is a pairwise tree (Blelloch 1990) of O(log L) array
passes: products of neighbouring steps, ((p1 p0 + q1 r0, p1 q0), (r1 p0,
r1 q0)), then of neighbouring pairs, and so on, an odd one out carried up
as it is; on request a pass back down fills in the product after every
step, the last level's as (p S[0] + q S[1], r S[0]) from the product S
before it.  Both passes run in place on the stack of products.  A carried matrix is folded into the first
step, a carried column multiplies the products last.
Every step and product whose largest entry leaves [1e-100, 1e100]
(RESCALE_LIMIT) is multiplied by a power of two, which is exact.  A call's
exponents stay 0, and are not added level by level, until a step or
product is rescaled; the carry's exponent is added once, at the end.  The
check first reads the smallest and largest entry of a whole stack, and
reads each matrix's largest only when one of those leaves the range.  Up
the tree the check is left out where it cannot fire, so every product is
bit for bit the one a check of every product gives.  A step
needs a > 0, that is q < 0, and finite entries, the rule of
`GrowthScanner.feed`: every caller's steps are checked here, with a
ValueError for the first bad step at its first bad lane.  A complex entry
whose modulus overflows but whose parts are finite counts by its larger
part, so that its step is scaled like any other.  A good step's
largest entry is at least max(|a|, |1/a|) >= 1, so no step is bad or
rescaled where the largest |p|, |q| and |r| clear the limit and q stays
negative, for an np.errstate (2 us a call); past it, and on a complex
stack, the path that forms each step's largest entry tests every step.  A
product of unshifted steps has determinant 1, so its largest entry is at
least 1 / sqrt(2), and entries at most B make products at most 4 B**2,
rounding included: a level up the tree checks only slot 0, and that only
where it holds a folded carry, while that bound stays below the limit, and where it
does not, a check of the whole level measures a new bound.  After a
shift, on the pass down and on a complex stack every product is checked.
Cost at one energy, medians of alternated calls on a shared 2-vCPU x86-64
VM with numpy 2.4: a call with prefixes takes about 30 us, plus 25 us a
tree level (some 15 numpy calls on small arrays, each out= a workspace
view), plus 40 ns a step in band and 65 ns off band, where rescales turn
the exponent adds on: 1.2-1.3 and 1.8 ms for 16384 steps, against 1.5 and
2.2 ms when each call allocated its arrays and faulted their pages in.  One
that only multiplies takes 0.5 ms for 16384 steps, 0.7 ms with every level
checked.  The checks left out save 2-3 % of a prefix call at one energy
and more on an energy axis.
`_step` takes one step in Python floats, rescaled by that rule: through
`GrowthScanner.feed` the sequential reference, and the schedule search's
step on lanes it reads into floats.  `GrowthScanner._advance` runs the
kernel and `_log_sums` on one energy or on lanes, per step or in totals.
"""

from __future__ import annotations

import cmath
import math
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# eval_coefficients stays bound here: perfbench/tracing.py wraps this name
from .coeffs import (CoefficientSpec, as_int, as_real,  # noqa: F401
                     coefficient_arrays, eval_coefficients)
from .errors import DegenerateBlockError, NonDiagonalizableFrameError
from .matrix2 import (_LN2, RESCALE_LIMIT, Matrix2, ScaledMatrix2,
                      _exp_saturating, _finite_energy, block_product)
from .periodic import PeriodicJacobi, _periodic

__all__ = [
    "QStepBlock", "Diagonalization", "CouplingSeries", "GrowthScanner", "Scan",
    "q_step_block", "transfer_product", "transfer_scan", "log_norm2",
    "eigen_branch", "coupling_series", "branch_sign_for_interval",
    "weyl_branch_sign",
]

CHUNK = 20480  # steps times lanes per kernel call; one energy is one lane
_UNDERFLOW = "a transfer product underflowed to zero: its steps span past float range"
@dataclass(frozen=True)
class QStepBlock:
    """One q-step transfer matrix with its trace and named entries."""

    m: int
    Phi: Matrix2
    z: complex

    @property
    def Delta(self) -> complex:
        return self.Phi.trace()

    @property
    def A(self) -> complex:
        return self.Phi.e11

    @property
    def B(self) -> complex:
        return self.Phi.e12

    @property
    def C(self) -> complex:
        return self.Phi.e21

    @property
    def D(self) -> complex:
        return self.Phi.e22


def q_step_block(spec: CoefficientSpec, q: int, m: int, z: complex) -> QStepBlock:
    """Transfer block over coefficient indices mq+1 .. (m+1)q."""
    q, m = as_int(q, "q", 1), as_int(m, "m", 0)
    a, b = coefficient_arrays(spec, m * q + 1, (m + 1) * q + 1)
    return QStepBlock(m, block_product(a.tolist(), b.tolist(), z)[0], z)


class Scan(NamedTuple):
    """A product t * 2**e: t of shape (2, c) holds a 2x2 matrix (c = 2) or a
    column (c = 1), e is an integer.  prefix_t and prefix_e, of shapes
    (2, c, L) and (L,), hold the product after each of the L steps of the
    kernel call that made it, when asked for.  With an energy axis of E
    lanes every field gains a trailing axis of length E (e has shape (E,))."""

    t: np.ndarray
    e: int | np.ndarray
    prefix_t: np.ndarray | None = None
    prefix_e: np.ndarray | None = None


class _Workspace(threading.local):
    """One thread's flat buffers by (slot, dtype), their views by (slot,
    shape, dtype) for `_take`, and counts 1.0, 2.0, ... for the statistics."""

    def __init__(self) -> None:
        self.buffers, self.views, self.counts = {}, {}, np.empty(0)


_WORK = _Workspace()
_VIEWS = 1024   # views kept per thread: one costs a small call more than its arithmetic
_F8, _I8, _I4, _B1 = (np.dtype(t) for t in (np.float64, np.int64, np.intc, bool))
_max, _min = np.maximum.reduce, np.minimum.reduce   # as ndarray.max, without its wrapper


def _take(slot: str, shape: tuple, dtype: np.dtype = _F8) -> np.ndarray:
    """An array of `shape` on the calling thread's buffer for slot and dtype,
    grown to its largest use and then kept (see the module docstring).  A
    slot holds one live array at a time."""
    views = _WORK.views
    view = views.get((slot, shape, dtype))
    if view is None:
        size, buffers = math.prod(shape), _WORK.buffers
        buf = buffers.get((slot, dtype))
        if buf is None or len(buf) < size or len(views) >= _VIEWS:
            if buf is None or len(buf) < size:
                buf = buffers[slot, dtype] = np.empty(size, dtype)
            views.clear()   # none left on a buffer given up
        view = views[slot, shape, dtype] = buf[:size].reshape(shape)
    return view


def _shifts(tops: np.ndarray, top: float):
    """For matrices whose largest entries are tops, with top their maximum:
    the power s of two for each one whose entry leaves [1 / RESCALE_LIMIT,
    RESCALE_LIMIT] such that 2**-s brings it into [0.5, 1), 0 for the
    others, as 2**-s (written over tops) and -s, or None when none leaves.
    A zero matrix, a product whose entries all underflowed, is a
    FloatingPointError."""
    low = 1.0 / RESCALE_LIMIT
    least = _min(tops, None, initial=low)
    if least == 0.0:
        raise FloatingPointError(_UNDERFLOW)
    if top <= RESCALE_LIMIT and low <= least:
        return None
    shape = tops.shape
    out = np.less(tops, low, out=_take("out", shape, _B1))
    out |= np.greater(tops, RESCALE_LIMIT, out=_take("over", shape, _B1))
    neg = np.frexp(tops, out=(tops, _take("neg", shape, _I4)))[1]
    neg *= out
    np.negative(neg, out=neg)
    return np.ldexp(1.0, neg, out=tops), neg


def _rescale(t: np.ndarray, e: np.ndarray) -> float:
    """Divide each matrix (over the two leading axes of t) whose largest
    entry leaves [1 / RESCALE_LIMIT, RESCALE_LIMIT] by the power of two of
    `_shifts`, which is exact, and add its power to its e, in place: so a
    product of two stays in float range, and a tree of products at a huge
    energy does not shrink to zero.  Returns the largest entry of t, or inf
    when a matrix was rescaled."""
    a = np.abs(t, out=_take("y", t.shape))
    top = _max(a, None, initial=0.0)
    # every entry in range is quicker to see than every matrix's largest
    if top <= RESCALE_LIMIT and 1.0 / RESCALE_LIMIT <= _min(a, None, initial=np.inf):
        return top
    shifted = _shifts(_max(a, (0, 1), out=_take("tops", a.shape[2:])), top)
    if shifted is None:
        return top
    t *= shifted[0]
    e -= shifted[1]
    return math.inf


def _set_product(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """t = x @ y for stacks of matrices with the two matrix axes first; t may
    be x or y.  Exponents are the caller's."""
    np.add(np.multiply(x[:, :1], y[:1], out=_take("x", t.shape, t.dtype)),
           np.multiply(x[:, 1:], y[1:], out=_take("y", t.shape, t.dtype)), out=t)


def _step_times(t: np.ndarray, p, q, r, y: np.ndarray) -> None:
    """t = M @ y for the steps M = ((p, q), (r, 0)) on axis 0 of p, q and r
    and a stack y of matrices or columns (matrix axes first), which t may
    not be: the terms of M's zero entry are left out."""
    # products into contiguous arrays: numpy's complex loops round by layout
    shape = t.shape[1:]
    np.add(np.multiply(p, y[0], out=_take("x", shape, t.dtype)),
           np.multiply(q, y[1], out=_take("y", shape, t.dtype)), out=t[0])
    np.multiply(r, y[0], out=t[1])


def _step_pairs(t: np.ndarray, p, q, r, s0: np.ndarray) -> None:
    """t = M_{2i+1} M_{2i} for the steps M_i = ((p_i, q_i), (r_i, 0)) on
    axis 0 of p, q and r: ((p1 p0 + q1 r0, p1 q0), (r1 p0, r1 q0)), but
    M_1 s0 for pair 0, s0 (2, 2, 1) being step 0 with the carry folded in."""
    n = len(p)
    p1, q1, r1, p0, q0, r0 = p[1::2], q[1::2], r[1::2], p[:n - 1:2], q[:n - 1:2], r[:n - 1:2]
    shape = t.shape[2:]
    np.add(np.multiply(p1, p0, out=_take("x", shape, t.dtype)),
           np.multiply(q1, r0, out=_take("y", shape, t.dtype)), out=t[0, 0])
    np.multiply(p1, q0, out=t[0, 1])
    np.multiply(r1, p0, out=t[1, 0])
    np.multiply(r1, q0, out=t[1, 1])
    _step_times(t[:, :, :1], p[1:2], q[1:2], r[1:2], s0)


def log_norm2(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log ||t * 2**e||^2 (operator norm) for t of shape (2, 2) + e.shape,
    by the formula of `Matrix2.op_norm` with f = p + s factored out of the
    hypot, since numpy's hypot is several times slower than its sqrt.  The
    result is in the thread's workspace, valid until its next kernel call
    or log_norm2."""
    shape, dtype = e.shape, t.dtype
    t11, t12, t21, t22 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    v = _take("q", shape, dtype)
    cj = (lambda y: np.conjugate(y, out=v)) if dtype.kind == "c" else (lambda y: y)
    # in place, in the order of log(0.5 f (1 + sqrt(d d + c c))) + 2 e ln 2
    p = np.multiply(t11, cj(t11), out=_take("x", shape, dtype))
    s = np.multiply(t21, cj(t21), out=_take("y", shape, dtype))
    c = np.multiply(t11, cj(t21), out=_take("p", shape, dtype))
    p += np.multiply(t12, cj(t12), out=v)
    s += np.multiply(t22, cj(t22), out=v)
    c += np.multiply(t12, cj(t22), out=v)
    # each real array over the real one it replaces, or beside a complex one
    p, s, c = p.real, s.real, np.abs(c, out=_take("p", shape))
    d = np.subtract(p, s, out=_take("q", shape))
    f = np.add(p, s, out=_take("x", shape))
    c *= 2.0
    for u in (d, c):
        u /= f
        u *= u
    d += c
    np.sqrt(d, out=d)
    d += 1.0
    f *= 0.5
    f *= d
    np.log(f, out=f)
    f += np.multiply(2.0 * _LN2, e, out=_take("y", shape))
    return f


def _log_sums(terms: np.ndarray, start, prefixes: bool) -> np.ndarray:
    """log(exp(start) + sum_{j <= i} exp(terms[j])) on axis 0 of terms, start
    of the shape of terms[0]: for every row i with prefixes=True, else for
    the last one.  Each is ref + log of a sum of exp(terms - ref) with no
    term above ref, so nothing overflows: for the total ref is the largest
    term or start.  Prefixes take a cumsum in blocks of rows, ref the
    running maximum of start and the terms at a block's end, and the sum
    before the block added to its first row; no partial sum loses precision
    while no block climbs 600 past that maximum before it and its first
    term.  The rows are one block where they can be, else blocks of 64;
    where those climb too, np.logaddexp.accumulate adds term by term.  With
    prefixes, each lane takes its own path, bit for bit as a call on it
    alone, and the sums are in the thread's workspace, valid until its next
    kernel call, log_norm2 or _log_sums."""
    n, lane = len(terms), terms.shape[1:]
    start = np.reshape(start, (1,) + lane)
    ref = np.maximum(terms.max(axis=0), start)
    if not prefixes:
        s = np.subtract(terms, ref, out=_take("p", terms.shape))
        return (ref + np.log(np.exp(s, out=s).sum(axis=0) + np.exp(start - ref)))[0]
    rows = terms[None]
    if np.any(far := ref - np.maximum(terms[0], start) >= 600.0):
        blocks = -(-n // 64)
        rows = _take("p", (64 * blocks,) + lane)
        rows[:n], rows[n:] = terms, -np.inf
        rows = rows.reshape((blocks, 64) + lane)
        ref = np.maximum.accumulate(np.concatenate((start, rows.max(axis=1))))
        path = 2 * (ref[1:] - np.maximum(ref[:-1], rows[:, 0]) >= 600.0).any(axis=0) + far[0]
        if lane and path.min() < path.max():   # the lanes of each path together
            out = np.empty_like(terms)
            for i in (path == kind for kind in set(path.tolist())):
                out[:, i] = _log_sums(terms[:, i], start[0, i], True)
            return out
        if path.max() > 1:
            acc = _take("y", (n + 1,) + lane)
            acc[:1], acc[1:] = start, terms
            return np.logaddexp.accumulate(acc, out=_take("p", acc.shape))[1:]
        ref = ref[1:]
    s = np.subtract(rows, ref[:, None], out=_take("p", rows.shape))
    np.exp(s, out=s)
    before = start
    if len(ref) > 1:   # block totals summed along a contiguous axis, pairwise, as for one lane
        totals = s[:-1].swapaxes(1, -1)
        if lane:
            np.copyto(copy := _take("y", totals.shape), totals)
            totals = copy
        before = np.logaddexp.accumulate(np.concatenate((start, np.log(totals.sum(axis=-1))
                                                         + ref[:-1])))
    s[:, 0] += np.exp(before - ref)
    out = np.log(np.cumsum(s, axis=1, out=s), out=s)
    out += ref[:, None]
    return out.reshape((s.shape[0] * s.shape[1],) + lane)[:n]


def transfer_scan(a: np.ndarray, b: np.ndarray, z, start: Scan | None = None,
                  prefixes: bool = False, inverse: bool = False) -> Iterator[Scan]:
    """Multiply the one-step matrices of (a[i], b[i]) at energy z onto
    `start` in array order (a[0]'s acts first), with the product carried
    from kernel call to kernel call; yields each call's Scan.

    z is one energy or a numpy array of E energies, the lanes: each lane
    has its own product and rescaling, and start (if given) and every field
    of the Scan gain a trailing lane axis; one energy is a lane axis of
    shape ().  a and b are numpy arrays of one shape: (L,), one coefficient
    run shared by every lane, or (L,) + z.shape, a run per lane (column i
    is lane i's); any other shape is a ValueError.  A lane's products are
    bit for bit those of a one-energy scan of its own run cut into the same
    calls.  A call takes CHUNK // E steps, at least one, so it costs one
    call's overhead plus E times the per-step cost at one energy; E may be
    0.  Every energy must be finite (ValueError).
    start, a Scan, defaults to the identity; its t of shape (2, 1) carries a
    column, and its e is carried too, so every e and prefix_e is absolute
    and a Scan yielded can start another scan.  With inverse=True each step
    is replaced by its inverse, so reversed arrays solve the recursion
    backwards.  With prefixes=True each Scan also holds the product after
    every step of its call.
    A Scan's t and e are its own, but its prefix_t and prefix_e are views of
    the thread's workspace, valid until the thread's next kernel call: a
    thread runs one scan at a time and uses each Scan before it asks for the
    next (copy a prefix to keep it).
    """
    _finite_energy(z)
    z = np.asarray(z, complex)
    z = z if z.imag.any() else z.real
    if not (a.ndim and a.shape == b.shape and a.shape[1:] in ((), z.shape)):
        raise ValueError(f"coefficient runs need shape (L,) or (L,) + {z.shape} "
                         f"at energies of shape {z.shape}, got {a.shape} and {b.shape}")
    if start is None:
        start = Scan(np.multiply.outer(np.eye(2), np.ones(z.shape)),
                     np.zeros(z.shape, np.int64))
    steps = max(1, CHUNK // max(1, z.size))
    for lo in range(0, len(a), steps):
        start = _scan_chunk(a[lo:lo + steps], b[lo:lo + steps], z, start,
                            prefixes, inverse)
        yield start


def _prefix_products(t: np.ndarray, e: np.ndarray, bound: float, live: bool,
                     carried: bool, steps=None) -> bool:
    """Overwrite the stack of matrices M on axis 2 of t, and their exponents
    e, with the products S_i = M_i ... M_0: each odd slot takes the pair
    M_{2i+1} M_{2i}, the odd slots are scanned in place, and each even slot
    2i > 0 then takes M_{2i} S_{2i-1}.  With steps = (p, q, r) the M_i past
    slot 0 are those steps and are read from there, not from t.  `bound`
    and carried are `_checked`'s.  live says whether any exponent may be
    nonzero; while none is, no exponents are added.  Returns live after the
    products' rescales."""
    n = t.shape[2]
    if n == 1:
        return live
    odd_t, odd_e = t[:, :, 1::2], e[1::2]
    if steps is None:
        _set_product(odd_t, odd_t, t[:, :, 0:n - 1:2])
    else:
        p, q, r = steps
        _step_pairs(odd_t, p, q, r, t[:, :, :1])
    if live:
        np.add(odd_e, e[0:n - 1:2], out=odd_e)
    live = _prefix_products(odd_t, odd_e, *_checked(odd_t, odd_e, bound, live, carried),
                            carried)
    even_t, even_e = t[:, :, 2::2], e[2::2]
    if steps is None:
        _set_product(even_t, even_t, t[:, :, 1:n - 1:2])
    else:
        _step_times(even_t, p[2::2], q[2::2], r[2::2], t[:, :, 1:n - 1:2])
    if live:
        np.add(even_e, e[1:n - 1:2], out=even_e)
    return _rescale(even_t, even_e) == math.inf or live


def _checked(t: np.ndarray, e: np.ndarray, bound: float, live: bool,
             carried: bool) -> tuple[float, bool]:
    """`_rescale` on a level of products whose entries past slot 0 the level
    below bounds by `bound`, inf after a shift and on a complex stack: below
    the limit only slot 0 is checked, and only where it carries a matrix
    folded in (see the module docstring), else all, which measures them
    unless it shifts.  Returns the level's bound and live after its rescales."""
    bound = 4.0 * bound * bound
    if bound > RESCALE_LIMIT:
        top = _rescale(t, e)
        bound = math.inf if bound == math.inf else top
    elif carried:
        top = _rescale(t[:, :, :1], e[:1])
    else:
        return bound, live
    return bound, live or top == math.inf


def _reduced(t0: np.ndarray, e: np.ndarray, bound: float, live: bool, carried: bool,
             p, q, r):
    """M_{L-1} ... M_1 S_0 for the steps M_i = (p, q, r)[i] past slot 0,
    whose product S_0 is t0, and their exponents e (slot 0's first), as a
    stack of one with its exponent: pairs level by level, in place on the
    first level's stack and on e, an odd tail carried up a level as it is,
    each level checked by `_checked`."""
    L = len(p)
    if L == 1:
        return t0, e
    t = _take("t", (2, 2, (L + 1) // 2) + t0.shape[3:], t0.dtype)
    _step_pairs(t[:, :, :L // 2], p, q, r, t0)
    if L % 2:
        t[0, 0, -1], t[0, 1, -1], t[1, 0, -1], t[1, 1, -1] = p[-1], q[-1], r[-1], 0.0
    # pair i's exponent goes to slot 2i of e, so that a tail sits at L - 1
    if live:
        np.add(e[0:L - 1:2], e[1::2], out=e[0:L - 1:2])
    e = e[::2]
    bound, live = _checked(t[:, :, :L // 2], e[:L // 2], bound, live, carried)
    while t.shape[2] > 1:
        n = t.shape[2]
        pair_t, pair_e = t[:, :, 0:n - 1:2], e[0:n - 1:2]
        _set_product(pair_t, t[:, :, 1::2], pair_t)
        if live:
            np.add(pair_e, e[1::2], out=pair_e)
        bound, live = _checked(pair_t, pair_e, bound, live, carried)
        t, e = t[:, :, ::2], e[::2]
    return t, e


def _scan_chunk(a: np.ndarray, b: np.ndarray, z, carry: Scan,
                prefixes: bool, inverse: bool) -> Scan:
    # every array below ends in the lane axis, of shape () at one energy, and
    # every one the size of the call is in the workspace
    L, lane = len(a), z.shape
    run = (L,) + (lane if a.ndim > 1 else (1,) * len(lane))  # per lane or shared
    steps = (L,) + lane
    flip = slice(None, None, -1 if inverse else 1)
    ct, fold = carry.t[flip], carry.t.shape[1] == 2
    dtype = np.result_type(z, b, ct) if fold else np.result_type(z, b)
    # step i is ((p, q), (r, 0)) = ((p, -1/a), (a, 0)), kept as three arrays
    # (q and r of the run's shape); in swapped coordinates its inverse is
    # ((p, -a), (1/a, 0)).  p by parts, so that a real lane on a complex
    # axis rounds as a real energy
    den, p, q = a.reshape(run), _take("p", steps, dtype), _take("q", run)
    with np.errstate(all="ignore"):   # a bad step divides by 0 or overflows
        np.subtract(z, b.reshape(run), out=p)
        if dtype.kind == "c":
            im = np.divide(p.imag, den, out=_take("im", steps))
            re = np.divide(p.real, den, out=_take("re", steps))
            np.add(re, np.multiply(1j, im, out=p), out=p)
        else:
            p /= den
        if inverse:
            r = np.divide(1.0, den, out=_take("r", run))
            np.negative(den, out=q)
        else:
            r = den
            np.negative(np.divide(1.0, den, out=q), out=q)
    # each step rescaled first, so that no product of two leaves float range
    # (see the module docstring).  Where q < 0, max |q| = -min q and max |r| =
    # max r; p goes first, where a NaN (from b) stays the maximum, and the
    # initial values serve an empty lane axis.  The exponents stay 0, and are
    # not added, until a step or product is shifted
    e = _take("e", steps, _I8)
    e.fill(0)
    live, bound = False, math.inf
    if dtype.kind != "c" and _max(q, None, initial=-1.0) < 0.0:
        bound = max(_max(p, None, initial=0.0), -_min(p, None, initial=0.0),
                    -_min(q, None, initial=0.0), _max(r, None, initial=0.0))
    if not bound <= RESCALE_LIMIT:
        tops = np.abs(p, out=_take("tops", steps))
        np.maximum(tops, np.abs(q, out=_take("y", run)), out=tops)
        np.maximum(tops, np.abs(r, out=_take("y", run)), out=tops)
        top = _max(tops, None, initial=0.0)
        if dtype.kind == "c" and not top <= _FLOAT_MAX:
            # a modulus |p| past float range, of finite parts, counts by its larger part
            big = np.abs(p)
            np.copyto(big, np.maximum(np.abs(p.real), np.abs(p.imag)),
                      where=np.isinf(big) & np.isfinite(p))
            np.maximum(np.maximum(big, np.abs(q)), np.abs(r), out=tops)
            top = _max(tops, None, initial=0.0)
        good = np.less_equal(tops, _FLOAT_MAX, out=_take("out", steps, _B1))
        good &= np.less(q, 0.0, out=_take("over", run, _B1))
        if not good.all():   # the first bad step, at its first bad lane
            at = np.unravel_index(np.argmin(good), good.shape)
            a_at, b_at = (np.broadcast_to(v.reshape(run), good.shape)[at].item() for v in (a, b))
            raise _coefficient_error(z[at[1:]].item(), a_at, b_at)
        shifted = _shifts(tops, top)
        if shifted is not None:
            scale, neg = shifted
            p *= scale
            q = np.multiply(q, scale, out=_take("qs", steps))
            r = np.multiply(r, scale, out=_take("rs", steps))
            live = True
            e -= neg
        bound = math.inf
    # slot 0 is step 0 with a matrix carry folded in; a column multiplies
    # the products last
    t = _take("t" if prefixes else "head", (2, 2, L if prefixes else 1) + lane, dtype)
    if fold:
        _step_times(t[:, :, :1], p[:1], q[:1], r[:1], ct[:, :, None])
        live = _rescale(t[:, :, :1], e[:1]) == math.inf or live
    else:
        t[0, 0, 0], t[0, 1, 0], t[1, 0, 0], t[1, 1, 0] = p[0], q[0], r[0], 0.0
    if prefixes:
        _prefix_products(t, e, bound, live, fold, (p, q, r))
    else:
        t, e = _reduced(t, e, bound, live, fold, p, q, r)
    if not fold:
        col = _take("col", (2, 1) + t.shape[2:], np.result_type(t, ct))
        _set_product(col, t, ct[:, :, None])
        _rescale(col, e)
        t = col
    e += carry.e  # the carry's exponent, once
    # the carry is copied out: the next call overwrites the workspace
    last = Scan(t[flip, :, -1].copy(), e[-1].copy())
    return last._replace(prefix_t=t[flip], prefix_e=e) if prefixes else last


def transfer_product(spec: CoefficientSpec, m: int, n: int, x: complex) -> ScaledMatrix2:
    """Ordered product A_n * A_{n-1} * ... * A_m at energy x.

    Returned in the scaled representation, so log-norms never overflow.
    """
    m = as_int(m, "m", 1)
    n = as_int(n, "n", m)
    *_, scan = transfer_scan(*coefficient_arrays(spec, m, n + 1), x)
    return ScaledMatrix2(Matrix2(*scan.t.ravel().tolist()), scan.e * _LN2)


_FLOAT_MAX = sys.float_info.max


def _coefficient_error(x: float, a: float, b: float) -> ValueError:
    """The error for a step at energy x whose a is not positive and finite,
    whose b is not finite, or whose entry -1/a or (x - b)/a is not finite."""
    if not 0.0 < a <= _FLOAT_MAX:
        return ValueError(f"coefficient a must be positive and finite, got {a!r}")
    if not abs(b) <= _FLOAT_MAX:
        return ValueError(f"coefficient b must be finite, got {b!r}")
    if 1.0 / a > _FLOAT_MAX:
        return ValueError(f"coefficient a = {a!r} makes the step entry -1/a infinite")
    return ValueError(f"coefficients a = {a!r}, b = {b!r} make the step entry "
                      f"(x - b)/a infinite at x = {x!r}")


def _step(x: float, a: float, b: float, t11: float, t12: float, t21: float, t22: float,
          e: int, log_sum: float) -> tuple[float, float, float, float, int, float]:
    """One step (a, b) at energy x of the product (t11, t12; t21, t22) * 2**e
    and of the log-sum of its squared norms, in Python floats: the new six.
    a must be positive and finite, and the step's entries -1/a and (x - b)/a
    finite, so b too (ValueError).  A step with an entry past RESCALE_LIMIT
    is divided by a power of two first, as in the kernel."""
    # after the test of a, one chained comparison: qv >= -limit, |p| <= limit
    if not (0.0 < a <= RESCALE_LIMIT and (qv := -1.0 / a) >= -RESCALE_LIMIT
            <= (p := (x - b) / a) <= RESCALE_LIMIT):
        if not (0.0 < a <= _FLOAT_MAX and (qv := -1.0 / a) >= -_FLOAT_MAX
                <= (p := (x - b) / a) <= _FLOAT_MAX):
            raise _coefficient_error(x, a, b)
        shift = math.frexp(max(abs(p), -qv, a))[1]
        p, qv, a = math.ldexp(p, -shift), math.ldexp(qv, -shift), math.ldexp(a, -shift)
        e += shift
    t11, t12, t21, t22 = p * t11 + qv * t21, p * t12 + qv * t22, a * t11, a * t12
    m = max(abs(t11), abs(t12), abs(t21), abs(t22))
    # the kernel's range [1 / RESCALE_LIMIT, RESCALE_LIMIT]: a product of
    # scaled steps has no determinant 1 and can shrink
    if m > RESCALE_LIMIT or m * RESCALE_LIMIT < 1.0:
        if m == 0.0:
            raise FloatingPointError(_UNDERFLOW)
        shift = math.frexp(m)[1]
        t11, t12 = math.ldexp(t11, -shift), math.ldexp(t12, -shift)
        t21, t22 = math.ldexp(t21, -shift), math.ldexp(t22, -shift)
        e += shift
    # log of the squared operator norm, by the formula of Matrix2.op_norm
    p, s, r = t11 * t11 + t12 * t12, t21 * t21 + t22 * t22, t11 * t21 + t12 * t22
    term = math.log(0.5 * (p + s + math.hypot(p - s, 2.0 * r))) + (2.0 * _LN2) * e
    lo, hi = (term, log_sum) if term <= log_sum else (log_sum, term)
    return t11, t12, t21, t22, e, hi + math.log1p(math.exp(lo - hi))


class GrowthScanner:
    """Accumulates T_{1,n}(x) together with sum_{n' <= n} ||T_{1,n'}||^2.

    The sum lives in natural-log space; `statistic_log` is the log of
    sum / (n log^2 n) and `running_max_log` its maximum over all prefixes
    n >= 2 seen so far.  One instance is fed coefficients in index order
    starting at n = 1; the product is (t11, t12; t21, t22) * 2**e.  x is one
    energy or a 1-D numpy array of E energies (lanes), each at its own n,
    every other field then an array (E,); `feed` and the properties take one."""

    __slots__ = ("x", "n", "t11", "t12", "t21", "t22", "e",
                 "log_sum", "running_max_log")

    def __init__(self, x: float | np.ndarray) -> None:
        if isinstance(x, np.ndarray):
            if x.dtype.kind not in "iuf":
                raise TypeError(f"energy x must be real, got an array of {x.dtype}")
            if x.ndim != 1 or not np.isfinite(x).all():
                raise ValueError(f"energy x must be a 1-D array of finite energies, got {x!r}")
        self.x = x.astype(np.float64) if isinstance(x, np.ndarray) else as_real(x, "energy x")
        for name, v in zip(GrowthScanner.__slots__[1:],
                           (0, 1.0, 0.0, 0.0, 1.0, 0, -math.inf, -math.inf)):
            setattr(self, name, v if self.x.__class__ is float else np.full(x.shape, v))

    def feed(self, a: float, b: float) -> None:
        """Take one step in Python floats (`_step`): the sequential reference."""
        if self.x.__class__ is not float:
            raise TypeError("feed takes one energy; feed energy lanes with feed_arrays")
        self.t11, self.t12, self.t21, self.t22, self.e, self.log_sum = _step(
            self.x, a, b, self.t11, self.t12, self.t21, self.t22, self.e, self.log_sum)
        self.n += 1
        if self.n >= 2:
            self.running_max_log = max(self.running_max_log, self.statistic_log)

    def feed_arrays(self, avals, bvals) -> np.ndarray:
        """Feed a run of coefficients (L,) in index order to every lane
        through `transfer_scan`, whose check of the steps raises as `feed`
        does and leaves the scanner as it was.  Returns the log statistic
        after each step (-inf at n = 1), of shape (L,) or (L, E), empty for
        an empty run."""
        a, b = np.asarray(avals, np.float64), np.asarray(bvals, np.float64)
        if not (a.ndim == 1 and a.shape == b.shape):
            raise ValueError(f"coefficient runs need one shape (L,), got {a.shape} and {b.shape}")
        return self._advance(a, b)

    def _advance(self, a: np.ndarray, b: np.ndarray, at=slice(None), prefixes: bool = True):
        """Feed a, b (L,) to the lanes `at`: per step as `feed_arrays`, or totals only."""
        one = self.x.__class__ is float
        x, n, t11, t12, t21, t22, e, log_sum, top = (
            v if one else v[at] for v in map(self.__getattribute__, GrowthScanner.__slots__))
        scan = Scan(np.array([[t11, t12], [t21, t22]]), e)
        stats, lo = np.empty((len(a) if prefixes else 0,) + np.shape(x)), 0
        for scan in transfer_scan(a, b, x, scan, prefixes=True):
            sums = total = _log_sums(log_norm2(scan.prefix_t, scan.prefix_e), log_sum, prefixes)
            if prefixes:
                hi = lo + len(sums)
                if len(_WORK.counts) < len(sums):
                    _WORK.counts = np.arange(1.0, len(sums) + 1.0)
                ln_n = (np.add if one else np.add.outer)(_WORK.counts[:len(sums)], n,
                                                         out=_take("y", sums.shape))
                np.maximum(ln_n[:1], 2.0, out=ln_n[:1])   # n = 1; the rest are at least 2
                np.log(ln_n, out=ln_n)
                stat = np.subtract(sums, ln_n, out=stats[lo:hi])
                stat -= np.multiply(2.0, np.log(ln_n, out=ln_n), out=ln_n)
                stat[:1][..., n == 0] = -np.inf  # n = 1
                # the sums are the workspace's, which the next call overwrites
                top, total, lo = np.maximum(top, stat.max(axis=0)), sums[-1].copy(), hi
            log_sum, n = total, n + len(scan.prefix_e)
        for name, v in zip(GrowthScanner.__slots__[1:], (
                n, *scan.t[0], *scan.t[1], scan.e, log_sum, top)):
            if one:   # as the field's Python number type, which `feed` keeps
                setattr(self, name, type(getattr(self, name))(v))
            else:
                getattr(self, name)[at] = v
        return stats

    @property
    def statistic_log(self) -> float:
        if self.n < 2:
            raise ValueError("statistic defined for n >= 2")
        ln_n = math.log(self.n)
        return self.log_sum - ln_n - 2.0 * math.log(ln_n)

    @property
    def statistic(self) -> float:
        return _exp_saturating(self.statistic_log)

    @property
    def running_max(self) -> float:
        return _exp_saturating(self.running_max_log)


_PRINCIPAL_EPS = 1e-12


def _eigenvalue_pair(delta: complex, s: int, sqrt=cmath.sqrt) -> tuple[complex, complex]:
    root = sqrt(4.0 - delta * delta)  # principal branch, sqrt(1) = 1
    return 0.5 * (delta + 1j * s * root), 0.5 * (delta - 1j * s * root)


@dataclass(frozen=True)
class Diagonalization:
    """Eigen decomposition Phi = U diag(lam, 1/lam) U^{-1} of a block."""

    lam: complex
    lam_inv: complex
    U: Matrix2
    U_inv: Matrix2
    s: int


def _eigenframe(m, delta, c, d, s: int, sqrt=cmath.sqrt):
    """`eigen_branch`'s (lam, 1/lam, U, U^{-1}) for blocks m from their trace
    and lower row (c, d).  On a block axis (arrays, sqrt=np.sqrt) the lowest
    failing block raises, with "at block m=...: " in front of the message."""
    if s not in (1, -1):
        raise ValueError("branch sign must be +1 or -1")
    collapsed = (abs(delta - 2.0) < _PRINCIPAL_EPS) | (abs(delta + 2.0) < _PRINCIPAL_EPS)
    bad = np.flatnonzero(collapsed | (abs(c) < 1e-14))
    if len(bad):
        k, delta_k, c_k = (np.ravel(v)[bad[0]] for v in (m, delta, c))
        at = f"at block m={k}: " if np.ndim(m) else ""
        if np.ravel(collapsed)[bad[0]]:
            raise DegenerateBlockError(
                f"{at}block {k}: |Delta| = {abs(delta_k)} is at 2, eigenvalues collapse")
        raise NonDiagonalizableFrameError(
            f"{at}block {k}: C = {complex(c_k)} vanishes, eigenvector frame singular")
    lam, lam_inv = _eigenvalue_pair(delta, s, sqrt)
    pref = 1.0 / ((lam - lam_inv) * c)
    return (lam, lam_inv, Matrix2(lam - d, lam_inv - d, c, c),
            Matrix2(pref * c, pref * (d - lam_inv), -pref * c, pref * (lam - d)))


def _block(block: QStepBlock) -> QStepBlock:
    if not isinstance(block, QStepBlock):
        raise TypeError(f"block must be a QStepBlock, got {block!r}")
    return block


def eigen_branch(block: QStepBlock, s: int) -> Diagonalization:
    """Diagonalize a nondegenerate block with the branch selected by s.

    The eigenvalue is (Delta + i s sqrt(4 - Delta^2)) / 2 with the principal
    square root; its partner is the algebraic reciprocal.  The eigenvector
    frame uses the block's lower row, which needs C != 0.
    """
    delta, c, d = complex(_block(block).Delta), complex(block.C), complex(block.D)
    return Diagonalization(*_eigenframe(block.m, delta, c, d, s), s)


def branch_sign_for_interval(P: PeriodicJacobi, lo: float, hi: float) -> int:
    """Branch sign from the derivative of the discriminant at the interval
    midpoint, D' = tr dT/dx from the transfer recursion: s = sign(-D'(mid)).
    Needs lo <= hi (ValueError)."""
    slope = block_product(_periodic(P).a, P.b, 0.5 * (lo + hi))[1].trace()
    if lo > hi:   # after the energy check, which names a non-finite end
        raise ValueError(f"need lo <= hi, got lo={lo!r} > hi={hi!r}")
    if slope == 0.0:
        raise ValueError("discriminant derivative vanishes at the midpoint; "
                         "the interval straddles a critical point")
    return 1 if -slope > 0 else -1


def weyl_branch_sign(block: QStepBlock) -> int:
    """The branch sign whose eigenvalue is contracting (|lam| < 1), defined off
    the real axis (on it both branches are unimodular); the s = -1 eigenvalue
    is the s = +1 one's partner up to the sign of a zero."""
    lam_p, lam_m = _eigenvalue_pair(complex(_block(block).Delta), +1)
    if abs(abs(lam_p) - abs(lam_m)) < 1e-14:
        raise DegenerateBlockError("both eigenvalue branches are unimodular; "
                                   "no contracting branch at this energy")
    return 1 if abs(lam_p) < abs(lam_m) else -1


def strip_margins(P: PeriodicJacobi, lo: float, hi: float, y_max: float = 0.05,
                  nx: int = 41, ny: int = 8) -> dict:
    """Empirical uniform margins over the strip [lo, hi] x [0, y_max].

    The constants these margins estimate exist for some neighborhood of any
    closed band-interior interval but have no closed form, so this reports the
    values seen at x_i = lo + (hi - lo) i / (nx - 1), y_j = y_max j / ny.  y_max
    is absolute, not scaled to the band: a non-positive margin means that the
    strip has left the band's neighborhood (a narrow band needs a smaller one).

      trace_margin        min of 2 - |Delta|
      slope_margin        min of -s Re Delta', with s from the midpoint rule
      c_lower / c_upper   min of t Re C and max of |C|, t = sign of Re C
      contraction_slope   min of (1 - |lam|)/y over y > 0, contracting branch
    """
    nx, ny, y_max = as_int(nx, "nx"), as_int(ny, "ny"), as_real(y_max, "y_max")
    if nx < 2 or ny < 1 or not y_max > 0.0:
        raise ValueError(f"need nx >= 2 and ny >= 1 and y_max > 0, got nx={nx}, ny={ny}, "
                         f"y_max={y_max!r}")
    s = branch_sign_for_interval(P, lo, hi)
    t = 1 if block_product(P.a, P.b, 0.5 * (lo + hi))[0].e21 >= 0 else -1
    x = lo + (hi - lo) * np.arange(nx) / (nx - 1)
    y = y_max * np.arange(ny + 1) / ny
    T, dT = block_product(P.a, P.b, np.add.outer(x, 1j * y))
    delta, c, up = T.trace(), T.e21, y > 0.0
    lam, lam_inv = _eigenvalue_pair(delta[:, up], s, np.sqrt)
    lam_c = np.minimum(np.abs(lam), np.abs(lam_inv))
    return {"s": s, "t": t, "trace_margin": float(np.min(2.0 - np.abs(delta))),
            "slope_margin": float(np.min(-s * dT.trace().real)),
            "c_lower": float(np.min(t * c.real)), "c_upper": float(np.max(np.abs(c))),
            "contraction_slope": float(np.min((1.0 - lam_c) / y[up], initial=np.inf))}


@dataclass(frozen=True)
class CouplingSeries:
    """Frame-change defects W_m = U_m^{-1} U_{m+1} - I and their running
    squared-norm sums."""

    m_start: int
    W: tuple[Matrix2, ...]
    partial_l2: tuple[float, ...]

    def block_entries(self, i: int) -> tuple[complex, complex, complex, complex]:
        return self.W[i].entries()


def coupling_series(spec: CoefficientSpec, q: int, z: complex,
                    m_range: range, s: int) -> CouplingSeries:
    """W_m over m_range with cumulative sums of ||W_m||^2 (operator norm), from
    one `block_product` call on a block axis of the blocks m and m + 1 needed.
    Memory: their coefficients and about 300 bytes a block, besides W."""
    if len(m_range) == 0:
        raise ValueError("m_range must be nonempty")
    q, z = as_int(q, "q", 1), complex(z)
    as_int(min(m_range), "m", 0)
    ms = np.arange(m_range.start, m_range.stop, m_range.step)
    blocks = np.sort(np.concatenate((ms, ms + 1)))
    blocks = blocks[np.diff(blocks, prepend=-1) > 0]  # each needed block once
    runs = np.split(blocks, np.flatnonzero(np.diff(blocks) > 1) + 1)
    a, b = (np.concatenate(c).reshape(len(blocks), q) for c in zip(*(
        coefficient_arrays(spec, r[0] * q + 1, (r[-1] + 1) * q + 1) for r in runs)))
    T = block_product(a.T, b.T, z)[0]
    _, _, U, U_inv = _eigenframe(blocks, T.trace(), T.e21, T.e22, s, np.sqrt)
    at = np.searchsorted(blocks, ms)
    w = (Matrix2(*(e[at] for e in U_inv.entries()))
         @ Matrix2(*(e[at + 1] for e in U.entries()))) - Matrix2.identity()
    W = tuple(map(Matrix2, *(e.tolist() for e in w.entries())))
    return CouplingSeries(m_range[0], W, tuple(np.cumsum(w.op_norm() ** 2).tolist()))
