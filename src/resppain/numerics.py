"""Dense-array math with reverse-mode gradients.

Everything differentiable in this package goes through the ops defined
here: a small define-by-run tape over numpy arrays.  Tensors store values
in float32 by default (float64 available for numerical checks) and are
immutable after construction; each op records a backward closure, so the
tape is the set of result nodes in creation order.  ``backward`` visits
only the nodes that need a gradient, releases them and returns leaf gradients.

Precision policy:

- Every reduction (matmul contractions, softmax denominators, norm
  statistics, sums and means) accumulates in float64 before the result
  is rounded once back to the storage dtype.  So do ``scale``,
  ``add_const``, ``dropout`` and the transcendental ops: a float32
  product with a Python float rounded through float64 is not always the
  native float32 product.
- Elementwise ``add`` and ``mul`` of two storage-dtype operands, and
  ``matmul``'s bias add to its rounded contraction, run natively.  The
  float64 round-trip cannot change a bit there: the sum or product of
  two p-bit floats rounded first to q bits and then to p bits equals the
  direct rounding whenever q >= 2p + 2 (Figueroa 1995, "When is double
  rounding innocuous?"), and 53 >= 2 * 24 + 2.
- Backward closures capture the operand tensors and widen them to
  float64 only when the closure runs, so a live tape holds no float64
  copy of any weight or activation.  ``gelu`` keeps its float64 Phi(x),
  which costs an ``erf`` to recompute.
- An array is adopted, not copied: ``Tensor(arr)`` makes the array it
  is given the node's storage and sets it read-only, and every op result
  is built that way from the array the op has just computed.  Only
  ``parameter``, ``constant`` and ``straight_through`` take caller
  arrays, and they copy them before adopting the copy.

Ops that reduce within their input (softmax, log softmax, layer norm)
reduce over the last axis, so a vector is simply one row.

RNG is never global: any stochastic op (dropout) takes an explicit
numpy Generator.  Tape state is not global either: whether ops record is
a context variable, so ``no_grad()`` in one thread leaves recording on
in every other thread, and node ids come from one shared counter.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
from typing import Callable, Iterable

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
LAYER_NORM_EPS = 1e-5   # added to the variance before its square root


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; message names the shapes."""


class TapeError(RuntimeError):
    """Raised when backward is invoked on an already-consumed tape."""


_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar("grad_enabled", default=True)
# next() on a C-level count is atomic under the GIL: ids stay unique
# across threads, and creation order stays a topological order.
_node_ids = itertools.count()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation paths), in
    this thread (or context) only."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """Immutable numpy-backed value node.  Leaves with requires_grad=True
    are parameters; interior nodes carry a backward closure."""

    __slots__ = ("data", "requires_grad", "_id", "_parents", "_bwd", "_consumed")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        """Take data, a C-ordered float array, as this node's storage,
        without copying, and freeze it."""
        data.flags.writeable = False
        self.data = data
        self.requires_grad = bool(requires_grad)
        self._id = next(_node_ids)
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], tuple] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"


def parameter(data, dtype=DEFAULT_DTYPE) -> Tensor:
    """Leaf tensor that collects gradients, over a private C-ordered copy of
    data: a caller-owned buffer is never frozen in place, nor aliased where
    the caller could still write to it."""
    return Tensor(np.array(data, dtype=dtype, order="C"), requires_grad=True)


def constant(data, dtype=DEFAULT_DTYPE) -> Tensor:
    """Leaf tensor outside the gradient graph, over a private C-ordered copy
    of data, as in `parameter`."""
    return Tensor(np.array(data, dtype=dtype, order="C"))


def _result(data: np.ndarray, parents: tuple[Tensor, ...], bwd) -> Tensor:
    """Adopt an op's freshly computed, C-contiguous result array as a new
    node, recording the closure when the tape is live."""
    track = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, track)
    if track:
        out._parents = parents
        out._bwd = bwd
    return out


def _store(arr: np.ndarray, like: Tensor) -> np.ndarray:
    """Round a float64 accumulation back to the storage dtype."""
    return np.asarray(arr, dtype=like.data.dtype, order="C")


def _check_same_dtype(*ts: Tensor) -> None:
    dts = {t.data.dtype for t in ts}
    if len(dts) > 1:
        raise ShapeError(f"mixed tensor dtypes {sorted(d.name for d in dts)}")


# ---------------------------------------------------------------------------
# arithmetic

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """(m,k)@(k,n)->(m,n); also (k,)@(k,n)->(n,); plus an optional (n,) bias.

    Contractions run in float64 and round once to the storage dtype, so
    small shapes agree bit-for-bit with a sequential triple-loop oracle.
    The bias is then added natively, on each row (see the precision policy).
    """
    parents = (a, b) if bias is None else (a, b, bias)
    _check_same_dtype(*parents)
    if a.data.ndim not in (1, 2) or b.data.ndim != 2:
        raise ShapeError(f"matmul expects a 1-D/2-D operand times a matrix, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if bias is not None and bias.shape != b.shape[1:]:
        raise ShapeError(f"matmul bias shape {bias.shape} does not fit {a.shape} @ {b.shape}")
    out = _store(a.data.astype(np.float64, copy=False) @ b.data.astype(np.float64, copy=False), a)
    if bias is not None:
        out += bias.data    # native: see the precision policy above

    def bwd(g: np.ndarray):
        a64 = a.data.astype(np.float64, copy=False)
        b64 = b.data.astype(np.float64, copy=False)
        g64 = g.astype(np.float64, copy=False)
        if a.data.ndim == 1:   # (k,n)@(n,) -> (k,), and the bias gradient is g itself
            return (b64 @ g64, np.outer(a64, g64), g)[:len(parents)]
        return (g64 @ b64.T, a64.T @ g64) + (() if bias is None else (g64.sum(axis=0),))

    return _result(out, parents, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum, same shapes."""
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} + {b.shape}")
    out = np.asarray(a.data + b.data)    # native: see the precision policy above

    def bwd(g: np.ndarray):
        return g, g

    return _result(out, (a, b), bwd)


def add_n(parts: Iterable[Tensor]) -> Tensor:
    """Sum of equally-shaped tensors (left fold of add)."""
    parts = list(parts)
    if not parts:
        raise ShapeError("add_n needs at least one tensor")
    acc = parts[0]
    for p in parts[1:]:
        acc = add(acc, p)
    return acc


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same shapes."""
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} * {b.shape}")
    out = np.asarray(a.data * b.data)    # native: see the precision policy above

    def bwd(g: np.ndarray):
        return g * b.data, g * a.data

    return _result(out, (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    """a * scalar constant."""
    s = float(s)
    out = _store(a.data.astype(np.float64) * s, a)

    def bwd(g: np.ndarray):
        return (g * s,)

    return _result(out, (a,), bwd)


def add_const(a: Tensor, c: np.ndarray | float) -> Tensor:
    """a + non-learnable constant (same shape or scalar)."""
    c_arr = np.asarray(c, dtype=np.float64)
    out = _store(a.data.astype(np.float64) + c_arr, a)

    def bwd(g: np.ndarray):
        return (g,)

    return _result(out, (a,), bwd)


# ---------------------------------------------------------------------------
# shape plumbing

def transpose(a: Tensor) -> Tensor:
    """Matrix transpose; backward transposes the incoming gradient."""
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got {a.shape}")
    out = np.ascontiguousarray(a.data.T)

    def bwd(g: np.ndarray):
        return (np.ascontiguousarray(g.T),)

    return _result(out, (a,), bwd)


def concat_vec(parts: list[Tensor]) -> Tensor:
    """Concatenate 1-D tensors into one vector."""
    if not parts:
        raise ShapeError("concat_vec needs at least one tensor")
    _check_same_dtype(*parts)
    for p in parts:
        if p.data.ndim != 1:
            raise ShapeError(f"concat_vec expects vectors, got shape {p.shape}")
    sizes = [p.shape[0] for p in parts]
    out = np.concatenate([p.data for p in parts])

    def bwd(g: np.ndarray):
        grads, off = [], 0
        for n in sizes:
            grads.append(g[off:off + n])
            off += n
        return tuple(grads)

    return _result(out, tuple(parts), bwd)


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Stack equal-length vectors into a (R, L) matrix."""
    if not rows:
        raise ShapeError("stack_rows needs at least one tensor")
    _check_same_dtype(*rows)
    if len({r.shape for r in rows}) > 1 or rows[0].data.ndim != 1:
        raise ShapeError(f"stack_rows expects equal-length vectors, got {[r.shape for r in rows]}")
    out = np.stack([r.data for r in rows])

    def bwd(g: np.ndarray):
        return tuple(g)

    return _result(out, tuple(rows), bwd)


def mean_axis0(a: Tensor) -> Tensor:
    """(N, d) -> (d,): column means, float64 accumulation."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_axis0 expects a matrix, got {a.shape}")
    n = a.shape[0]
    out = _store(a.data.astype(np.float64).mean(axis=0), a)

    def bwd(g: np.ndarray):
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _result(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements -> scalar, float64 accumulation."""
    out = _store(a.data.astype(np.float64).sum(), a)

    def bwd(g: np.ndarray):
        return (np.full(a.shape, float(g), dtype=a.data.dtype),)

    return _result(out, (a,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and norms

def gelu(a: Tensor) -> Tensor:
    """Exact erf GELU: x * Phi(x)."""
    x = a.data.astype(np.float64)
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = _store(x * phi, a)

    def bwd(g: np.ndarray):
        # d/dx = Phi(x) + x * pdf(x); x is re-widened here, not kept on the tape
        x = a.data.astype(np.float64)
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (g * (phi + x * pdf),)

    return _result(out, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, stable for large |x|."""
    x = a.data.astype(np.float64)
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = _store(s, a)

    def bwd(g: np.ndarray):
        return (g * (s * (1.0 - s)),)

    return _result(out, (a,), bwd)


def softmax_rows(a: Tensor) -> Tensor:
    """Stable softmax over the last axis: of each row, or of a vector.

    Shifts by the row max, exponentiates and normalizes in float64, so
    rows sum to one within float32 rounding even for magnitudes ~1e4.
    """
    x = a.data.astype(np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = _store(p, a)

    def bwd(g: np.ndarray):
        gp = g.astype(np.float64)
        return (p * (gp - (gp * p).sum(axis=-1, keepdims=True)),)

    return _result(out, (a,), bwd)


def log_softmax(a: Tensor) -> Tensor:
    """Stable log softmax over the last axis."""
    x = a.data.astype(np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    p = np.exp(logp)
    out = _store(logp, a)

    def bwd(g: np.ndarray):
        gp = g.astype(np.float64)
        return (gp - p * gp.sum(axis=-1, keepdims=True),)

    return _result(out, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Statistics accumulate in float64; variance is the biased (1/d) form, plus LAYER_NORM_EPS.
    """
    _check_same_dtype(a, gain, bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}")
    x = a.data.astype(np.float64)
    xc = x - x.mean(axis=-1, keepdims=True)
    # the same steps as np.var, without its second mean and subtraction
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out = _store(xhat * gain.data.astype(np.float64) + bias.data.astype(np.float64), a)

    def bwd(g: np.ndarray):
        g64 = g.astype(np.float64)
        dx = None   # a constant input (the tokens under ln_kv) needs none
        if a.requires_grad:
            gx = g64 * gain.data.astype(np.float64)
            # dx = inv * (gx - mean(gx) - xhat * mean(gx * xhat))
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            dx = inv * (gx - m1 - xhat * m2)
        axes = tuple(range(g64.ndim - 1))   # () for a vector: the sum is the identity
        return dx, (g64 * xhat).sum(axis=axes), g64.sum(axis=axes)

    return _result(out, (a, gain, bias), bwd)


# ---------------------------------------------------------------------------
# stochastic / straight-through

def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero with probability rate, scale kept by 1/(1-rate).

    An rng means training: the mask is drawn from it.  None is inference: identity.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must satisfy 0 <= rate < 1, got {rate}")
    if rng is None or rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate)
    factor = 1.0 / (1.0 - rate)
    out = _store(a.data.astype(np.float64) * keep * factor, a)

    def bwd(g: np.ndarray):
        return (g * keep * np.asarray(factor, dtype=g.dtype),)

    return _result(out, (a,), bwd)


def straight_through(a: Tensor, forward_value: np.ndarray) -> Tensor:
    """Forward emits forward_value; backward passes the gradient to a unchanged.

    The standard estimator for hard discrete decisions made from a soft
    relaxation of the same shape.
    """
    fv = np.array(forward_value, dtype=a.data.dtype, order="C")   # own copy, frozen below
    if fv.shape != a.shape:
        raise ShapeError(f"straight_through value shape {fv.shape} != input {a.shape}")

    def bwd(g: np.ndarray):
        return (g,)

    return _result(fv, (a,), bwd)


# ---------------------------------------------------------------------------
# backward

def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """{parameter: read-only gradient} of a scalar loss, for each parameter it reaches.

    Only nodes that need a gradient are visited, so every leaf reached is a
    parameter; leaves fed by one node may share an array.  Backward releases
    the tape: a node whose closure has run drops the closure and its parents,
    so a loss the caller still holds keeps no activation alive.  Such a node
    is consumed: backward through it again, with no fresh forward, raises TapeError.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._bwd is None and not loss.requires_grad:
        raise TapeError("loss is not connected to any parameter")

    # Collect reachable nodes; creation order is a topological order.
    seen: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t._id in seen:
            continue
        seen[t._id] = t
        if t._consumed:
            raise TapeError("stale tape: backward was already run through this node")
        stack.extend(p for p in t._parents if p.requires_grad)

    # Seeded for the loss, sent by consumers to every other node; only the leaves' stay.
    grads: dict[Tensor, np.ndarray] = {loss: np.asarray(1.0, dtype=loss.data.dtype)}
    for t in sorted(seen.values(), key=lambda n: n._id, reverse=True):
        if t._bwd is None:
            grads[t] = g = np.asarray(grads[t])   # a sum of 0-d arrays is a numpy scalar
            g.flags.writeable = False
            continue
        for p, pg in zip(t._parents, t._bwd(grads.pop(t))):
            if p.requires_grad:
                pg = np.asarray(pg, dtype=p.data.dtype)
                grads[p] = grads[p] + pg if p in grads else pg
        t._bwd, t._parents, t._consumed = None, (), True
    return grads
