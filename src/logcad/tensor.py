"""Minimal dense-tensor library with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy float array. Primitive operations executed
while a :class:`GradGraph` is active are recorded on that graph (a tape);
``graph.backward(loss)`` replays the tape once in reverse, accumulating
gradients into the ``grad`` of the leaf tensors (those no op produced).
With no active graph, primitives run forward-only, which is what
inference-time code uses.

Conventions:
  * vectors are 2-D ``(batch, dim)`` arrays; sequences are 3-D
    ``(batch, time, dim)``;
  * float64 is the default dtype (used by the gradient-check tests),
    training code builds float32 parameters explicitly;
  * a tensor used several times in a graph sums the gradients from each
    use, which is what weight sharing across time steps requires.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GradGraph",
    "ShapeError",
    "add",
    "sub",
    "mul",
    "matmul",
    "concat",
    "slice_axis",
    "reshape",
    "sigmoid",
    "tanh",
    "softmax",
    "reduce_max",
    "reduce_sum",
    "take_rows",
    "masked_nll",
    "gather_time",
    "lstm_sequence",
    "dropout",
    "gradient_check",
]


class ShapeError(ValueError):
    """Raised when an operation's input shapes do not conform."""


class Tensor:
    """Dense float array participating in a reverse-mode gradient graph."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routed through the recorded primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


# ---------------------------------------------------------------------------
# gradient tape

_GRAPH_STACK: list["GradGraph"] = []

# one recorded primitive: (name, inputs, output, backward_fn)
# backward_fn maps the output gradient to per-input gradients (None entries
# for non-differentiable inputs such as index arrays).
_OpRecord = tuple[str, tuple, "Tensor", Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]]


class GradGraph:
    """Ordered record of executed primitives, replayed in reverse by backward.

    Use as a context manager::

        with GradGraph() as g:
            loss = model_forward(...)
        g.backward(loss)

    Single-threaded per graph; distinct graphs may live on distinct threads.
    """

    def __init__(self):
        self.ops: list[_OpRecord] = []

    def __enter__(self) -> "GradGraph":
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _GRAPH_STACK.pop()
        assert popped is self

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into ``t.grad`` for every requires_grad
        leaf (a tensor no recorded op produced, such as a parameter) that
        ``loss`` depends on. Tensors the loss does not reach, and op outputs,
        keep their ``grad`` unchanged: an op output's gradient is dropped as
        soon as its op's backward has run, since its consumers all come later
        on the tape and have already run."""
        if loss.size != 1:
            raise ValueError(
                f"backward: loss must be scalar, got shape {loss.shape}"
            )
        # id -> (tensor, gradient); holding the tensor keeps its id unique
        acc: dict[int, tuple[Tensor, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.data))}
        for _name, inputs, out, backward_fn in reversed(self.ops):
            reached = acc.pop(id(out), None)
            if reached is None:
                continue  # op does not contribute to the loss
            for tin, gin in zip(inputs, backward_fn(reached[1])):
                if gin is None or not isinstance(tin, Tensor) or not tin.requires_grad:
                    continue
                prev = acc.get(id(tin))
                acc[id(tin)] = (tin, gin if prev is None else prev[1] + gin)
        for t, g in acc.values():
            t.grad = g if t.grad is None else t.grad + g


def _record(name: str, out_data: np.ndarray, inputs: tuple,
            backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    req = any(isinstance(t, Tensor) and t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=req)
    if req and _GRAPH_STACK:
        _GRAPH_STACK[-1].ops.append((name, inputs, out, backward_fn))
    return out


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_shape(name: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from e


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _broadcast_shape("add", a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _broadcast_shape("sub", a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record("sub", a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _coerce(a, b)
    b = _coerce(b, a)
    _broadcast_shape("mul", a, b)

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", a.data * b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's broadcasting rules. A 2-D right operand
    (a weight) is applied to all leading dims of ``a`` as one folded GEMM,
    forward and backward, instead of a batched product and a sum."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")

    if b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])

        def bw_folded(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

        out = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],))
        return _record("matmul", out, (a, b), bw_folded)

    def bw(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record("matmul", np.matmul(a.data, b.data), (a, b), bw)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    base = list(ts[0].shape)
    for t in ts[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis % len(base)
        ):
            raise ShapeError(f"concat: shapes {ts[0].shape} and {t.shape} differ off axis {axis}")
    sizes = [t.shape[axis] for t in ts]

    def bw(g):
        outs = []
        start = 0
        for s in sizes:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + s)
            outs.append(g[tuple(idx)])
            start += s
        return outs

    return _record("concat", np.concatenate([t.data for t in ts], axis=axis), tuple(ts), bw)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    dim = x.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ShapeError(f"slice_axis: [{start}:{stop}] out of range for axis {axis} of {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return _record("slice", x.data[idx], (x,), bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def bw(g):
        return (g.reshape(x.shape),)

    try:
        out = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from e
    return _record("reshape", out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    # the tanh form is one transcendental per element and cannot overflow
    out = 0.5 * (1.0 + np.tanh(0.5 * x.data))

    def bw(g):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _record("tanh", out, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # max-subtraction keeps exp() bounded
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax", out, (x,), bw)


def reduce_max(x: Tensor, axis: int) -> Tensor:
    idx = np.argmax(x.data, axis=axis)  # ties: first index wins
    out = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def bw(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return (gx,)

    return _record("max", out, (x,), bw)


def reduce_sum(x: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=False),)

    return _record("sum", out, (x,), bw)


def take_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: ``out[..., :] = table[ids[...], :]``.

    ``ids`` is an integer array (not differentiated); duplicates sum their
    gradients into the same table row.
    """
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("take_rows: ids must be integers")

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return gt, None

    return _record("take_rows", table.data[ids], (table, ids), bw)


def masked_nll(logits: Tensor, targets, weights) -> Tensor:
    """``sum_n weights[n] * -log softmax(logits[n])[targets[n]]`` for (N, V)
    ``logits``; ``targets`` and ``weights`` are not differentiated. The
    backward pass recomputes the softmax from the logits and the per-row
    log-sum-exp, so no (N, V) table is kept."""
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=logits.dtype)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],) \
            or weights.shape != targets.shape:
        raise ShapeError(f"masked_nll: need (N,V) logits with targets and weights (N,), got "
                         f"{logits.shape}, {targets.shape} and {weights.shape}")
    x = logits.data
    rows = np.arange(x.shape[0])
    top = x.max(axis=1, keepdims=True)
    e = x - top
    lse = top + np.log(np.exp(e, out=e).sum(axis=1, keepdims=True))

    def bw(g):
        gx = x - lse
        np.exp(gx, out=gx)
        gx[rows, targets] -= 1.0
        gx *= (g * weights)[:, None]
        return gx, None, None

    out = weights @ (lse[:, 0] - x[rows, targets])
    return _record("masked_nll", out, (logits, targets, weights), bw)


def gather_time(x: Tensor, idx) -> Tensor:
    """Reorder a sequence per batch entry: ``out[b, t] = x[b, idx[b, t]]``.

    Each row of ``idx`` must be a permutation of ``0..T-1``, so the backward
    pass writes every input step's gradient exactly once. Used to realign
    the backward half of the bidirectional encoder with the forward half on
    variable-length, padded batches.
    """
    idx = np.asarray(idx)
    if x.ndim != 3 or idx.shape != x.shape[:2]:
        raise ShapeError(f"gather_time: need (B,T,D) and idx (B,T), got {x.shape} and {idx.shape}")
    if not np.array_equal(np.sort(idx, axis=1), np.broadcast_to(np.arange(idx.shape[1]),
                                                                 idx.shape)):
        raise ShapeError("gather_time: each row of idx must be a permutation of 0..T-1")
    b = np.arange(x.shape[0])[:, None]

    def bw(g):
        gx = np.empty_like(x.data)
        gx[b, idx] = g
        return gx, None

    return _record("gather_time", x.data[b, idx], (x, idx), bw)


def lstm_sequence(xw: Tensor, wh: Tensor) -> Tensor:
    """Run an LSTM over a whole sequence from a zero state, as one tape op.

    ``xw`` (B, T, 4H) is the hoisted input projection ``x @ wx + b`` of all
    steps, ``wh`` (H, 4H) the recurrent weights; the column blocks are the
    gates i, f, g, o. Step t computes ``z = xw[:, t] + h @ wh``, then
    ``c = sig(z_f)*c + sig(z_i)*tanh(z_g)`` and ``h = sig(z_o)*tanh(c)``.
    Returns the hidden states (B, T, H). The backward pass runs the
    recurrence in reverse and forms ``d wh`` as one GEMM over all steps.
    """
    if xw.ndim != 3 or wh.ndim != 2 or wh.shape[1] != 4 * wh.shape[0] \
            or xw.shape[2] != wh.shape[1]:
        raise ShapeError(f"lstm_sequence: need xw (B,T,4H) and wh (H,4H), "
                         f"got {xw.shape} and {wh.shape}")
    bsz, steps, _ = xw.shape
    hid = wh.shape[0]
    dtype = xw.dtype
    # sig(z) = 0.5*tanh(0.5*z) + 0.5 on the i, f, o blocks; tanh(z) on g
    scale = np.full(4 * hid, 0.5, dtype=dtype)
    scale[2 * hid:3 * hid] = 1.0
    shift = 1.0 - scale
    # time-major; hs[0] and cs[0] are the zero initial state
    xs = np.swapaxes(xw.data, 0, 1)
    acts = np.empty((steps, bsz, 4 * hid), dtype=dtype)
    hs = np.zeros((steps + 1, bsz, hid), dtype=dtype)
    cs = np.zeros((steps + 1, bsz, hid), dtype=dtype)
    tcs = np.empty((steps, bsz, hid), dtype=dtype)
    for t in range(steps):
        a = acts[t]
        np.tanh((xs[t] + hs[t] @ wh.data) * scale, out=a)
        a *= scale
        a += shift
        i, f, g, o = np.split(a, 4, axis=1)
        np.add(f * cs[t], i * g, out=cs[t + 1])
        np.tanh(cs[t + 1], out=tcs[t])
        np.multiply(o, tcs[t], out=hs[t + 1])

    def bw(grad):
        gs = np.swapaxes(grad, 0, 1)
        dz = np.empty_like(acts)
        dh = np.zeros((bsz, hid), dtype=dtype)
        dc = np.zeros((bsz, hid), dtype=dtype)
        wh_t = np.ascontiguousarray(wh.data.T)
        for t in reversed(range(steps)):
            i, f, g, o = np.split(acts[t], 4, axis=1)
            dz_i, dz_f, dz_g, dz_o = np.split(dz[t], 4, axis=1)
            dh += gs[t]
            tc = tcs[t]
            dc += dh * o * (1.0 - tc * tc)
            np.multiply(dh * tc, o * (1.0 - o), out=dz_o)
            np.multiply(dc * g, i * (1.0 - i), out=dz_i)
            np.multiply(dc * cs[t], f * (1.0 - f), out=dz_f)
            np.multiply(dc * i, 1.0 - g * g, out=dz_g)
            dc *= f
            dh = dz[t] @ wh_t
        dwh = hs[:-1].reshape(-1, hid).T @ dz.reshape(-1, 4 * hid)
        return np.ascontiguousarray(np.swapaxes(dz, 0, 1)), dwh

    out = np.ascontiguousarray(np.swapaxes(hs[1:], 0, 1))
    return _record("lstm_sequence", out, (xw, wh), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p), so inference applies
    no rescaling. The sampled mask enters the graph as a constant."""
    if p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout: rate must be < 1")
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / np.asarray(1.0 - p, dtype=x.dtype)
    return mul(x, Tensor(keep))


# ---------------------------------------------------------------------------
# finite-difference checking


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-4) -> float:
    """Max relative error between the analytic gradient of ``f`` at ``x`` and
    central finite differences with step ``eps``.

    ``f`` must be scalar-valued. Relative error per coordinate is
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    if eps <= 0:
        raise ValueError("gradient_check: eps must be positive")
    x.grad = None
    with GradGraph() as g:
        out = f(x)
        if out.size != 1:
            raise ValueError(f"gradient_check: f must be scalar-valued, got shape {out.shape}")
        g.backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x).item()
        flat[i] = orig - eps
        lo = f(x).item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    numeric = numeric.reshape(x.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))

