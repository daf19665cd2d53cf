"""Minimal dense-tensor library with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy float array. Primitive operations executed
while a :class:`GradGraph` is active are recorded on that graph (a tape);
``graph.backward(loss)`` replays the tape once in reverse, accumulating
gradients into the ``grad`` of the leaf tensors (those no op produced).
The replay consumes the tape: each op's record, with the arrays its backward
function saved, is dropped as soon as that backward has run, so a graph runs
backward once. With no active graph, primitives run forward-only, which is
what inference-time code uses.

Conventions:
  * vectors are 2-D ``(batch, dim)`` arrays; sequences are 3-D
    ``(batch, time, dim)``;
  * float64 is the default dtype (used by the gradient-check tests),
    training code builds float32 parameters explicitly;
  * a tensor used several times in a graph sums the gradients from each
    use, which is what weight sharing across time steps requires. The second
    use's gradient and the first are summed into a buffer the graph
    allocates (a ``_Part`` gets it at its first use), and later uses add
    into that buffer in place;
  * after ``backward``, every leaf gradient is writable and shares no memory
    with another leaf's, so an optimizer may scale or update it in place.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional, Sequence

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
    "reshape",
    "sigmoid",
    "tanh",
    "softmax",
    "reduce_max",
    "reduce_sum",
    "take_rows",
    "linear_nll",
    "lstm_sequence",
    "dropout",
    "dropout_mask",
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


# ---------------------------------------------------------------------------
# gradient tape

_GRAPH_STACK: list["GradGraph"] = []

# one recorded primitive: (name, inputs, output or tuple of outputs, backward_fn);
# backward_fn maps the output gradient(s) to per-input gradients (None for ids).
_OpRecord = tuple[str, tuple, object, Callable[..., Sequence[Optional[np.ndarray]]]]


class _Part(NamedTuple):
    """An input gradient that is ``g`` at ``key`` and 0 elsewhere, for a key
    that picks each element once. The graph adds it into the input's
    accumulator, so no op fills a zero array of its input's size."""

    key: object
    g: np.ndarray


class GradGraph:
    """Ordered record of executed primitives, replayed in reverse by backward.

    Use as a context manager::

        with GradGraph() as g:
            loss = model_forward(...)
        g.backward(loss)

    Not thread-safe: the active graph is the top of one module-global stack,
    so every graph records and runs on one thread.
    """

    def __init__(self):
        self.ops: list[_OpRecord] = []
        self._replayed = False

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
        on the tape and have already run. An op with several outputs runs
        once any of them is reached, with zeros for those that are not.

        The replay consumes the tape: it pops each op's record before running
        its backward, so the record's closure and the arrays it saved are
        freed as the replay moves on, not when the graph goes. A second call
        raises ``ValueError``."""
        if loss.size != 1:
            raise ValueError(
                f"backward: loss must be scalar, got shape {loss.shape}"
            )
        if self._replayed:
            raise ValueError("backward: the tape was already replayed; "
                             "a graph runs backward once")
        self._replayed = True
        # id -> [tensor, gradient, whether the graph owns the gradient];
        # holding the tensor keeps its id unique. Only an owned buffer is
        # written in place: an array a backward function returned may be a
        # view of another gradient (reshape, concat) or go to two inputs (add).
        acc: dict[int, list] = {id(loss): [loss, np.ones_like(loss.data), True]}
        while self.ops:
            _name, inputs, out, backward_fn = self.ops.pop()
            outs = out if isinstance(out, tuple) else (out,)
            reached = [acc.pop(id(o), None) for o in outs]
            if not any(reached):
                continue  # op does not contribute to the loss
            grads = tuple(np.zeros_like(o.data) if r is None else r[1]
                          for o, r in zip(outs, reached))
            for tin, gin in zip(inputs, backward_fn(grads if outs is out else grads[0])):
                if gin is None or not isinstance(tin, Tensor) or not tin.requires_grad:
                    continue
                prev = acc.get(id(tin))
                if isinstance(gin, _Part):
                    if prev is None:
                        acc[id(tin)] = prev = [tin, np.zeros(tin.shape, tin.dtype), True]
                    elif not prev[2]:
                        prev[1], prev[2] = prev[1].copy(), True
                    prev[1][gin.key] += gin.g
                elif prev is None:
                    acc[id(tin)] = [tin, gin, False]
                elif prev[2]:
                    prev[1] += gin
                else:
                    prev[1], prev[2] = prev[1] + gin, True
        # a leaf keeps an array a backward function returned unless it is
        # read-only (reduce_sum's broadcast) or its memory is already another
        # leaf's; those are copied, so leaf gradients can be written in place
        leaf_memory: set[int] = set()
        for t, g, owned in acc.values():
            if t.grad is not None:
                g = t.grad + g
            elif not owned:
                root = g
                while isinstance(root.base, np.ndarray):
                    root = root.base
                if not g.flags.writeable or id(root) in leaf_memory:
                    g = g.copy()
                else:
                    leaf_memory.add(id(root))
            t.grad = g


def _record(name: str, out_data, inputs: tuple, backward_fn: Callable[..., Sequence]):
    req = any(isinstance(t, Tensor) and t.requires_grad for t in inputs)
    out = tuple(Tensor(d, requires_grad=req) for d in out_data) \
        if isinstance(out_data, tuple) else Tensor(out_data, requires_grad=req)
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
    """The tensors joined along ``axis``; one tensor is returned as it is."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    if len(ts) == 1:
        return ts[0]
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
    axis %= x.ndim
    idx = np.argmax(x.data, axis=axis)  # ties: first index wins
    grid = np.indices(idx.shape, sparse=True)
    key = (*grid[:axis], idx, *grid[axis:])

    def bw(g):
        return (_Part(key, g),)

    return _record("max", x.data[key], (x,), bw)


def reduce_sum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    out = x.data.sum(axis=axis)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=False),)

    return _record("sum", out, (x,), bw)


def take_rows(x: Tensor, key) -> Tensor:
    """``x.data[key]``, the one gather. ``key`` is an integer id array, whose
    ids pick rows of ``x`` and may repeat (-1 is the last row), a slice, or an
    index tuple that picks each element once. The backward pass returns the
    gradient at ``key`` as a ``_Part``, summing repeated ids first: the ids
    are sorted stably and each run of equal ids is one ``np.add.reduceat``."""
    if not isinstance(key, (slice, tuple)):
        key = np.asarray(key)
        if not np.issubdtype(key.dtype, np.integer):
            raise ShapeError("take_rows: ids must be integers")

    def bw(g):
        if not isinstance(key, np.ndarray):
            return _Part(key, g), None
        flat = key.reshape(-1) % len(x.data)  # -1 and len(x)-1 are one row
        g = g.reshape(flat.shape + x.shape[1:])
        order = flat.argsort(kind="stable")
        ids = flat[order]
        repeats = ids[1:] == ids[:-1]
        if not repeats.any():
            return _Part(flat, g), None
        starts = np.flatnonzero(np.r_[True, ~repeats])
        return _Part(ids[starts], np.add.reduceat(g[order], starts, axis=0)), None

    return _record("take_rows", x.data[key], (x, key), bw)


# linear_nll reduces and differentiates its (N, V) logits in blocks of this
# many rows, so a block stays in cache across its passes (2.5 MB at V=10k)
NLL_BLOCK = 64


def linear_nll(x: Tensor, w: Tensor, b: Tensor, targets, weights) -> tuple[Tensor, int]:
    """The output head: ``sum_n weights[n] * -log softmax(x @ w + b)[n,
    targets[n]]`` for ``x`` (N, D), ``w`` (D, V) and ``b`` (V,), and the number
    of rows whose highest logit (the first, on ties) is at the target.
    ``targets`` and ``weights`` (N,) are not differentiated.

    The (N, V) logits are one buffer that only this op holds. The forward pass
    adds the bias and takes each row's argmax and log-sum-exp in blocks of
    ``NLL_BLOCK`` rows; the backward pass turns the buffer in place into the
    logits' gradient, block by block, so no other (N, V) array is made."""
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=x.dtype)
    if x.ndim != 2 or w.ndim != 2 or w.shape[0] != x.shape[1] or b.shape != w.shape[1:] \
            or targets.shape != x.shape[:1] or weights.shape != targets.shape:
        raise ShapeError(f"linear_nll: need x (N,D), w (D,V), b (V,), targets and weights "
                         f"(N,), got {x.shape}, {w.shape}, {b.shape}, {targets.shape} and "
                         f"{weights.shape}")
    logits = x.data @ w.data
    n = len(logits)
    lse = np.empty(n, dtype=logits.dtype)
    best = np.empty(n, dtype=np.intp)
    scratch = np.empty((min(n, NLL_BLOCK), logits.shape[1]), dtype=logits.dtype)
    for lo in range(0, n, NLL_BLOCK):
        rows = slice(lo, lo + NLL_BLOCK)
        blk = logits[rows]
        blk += b.data
        best[rows] = blk.argmax(axis=1)
        top = blk[np.arange(len(blk)), best[rows]]
        shifted = np.subtract(blk, top[:, None], out=scratch[:len(blk)])
        lse[rows] = top + np.log(np.exp(shifted, out=shifted).sum(axis=1))

    def bw(g):
        scale = g * weights
        for lo in range(0, n, NLL_BLOCK):
            rows = slice(lo, lo + NLL_BLOCK)
            blk = logits[rows]
            blk -= lse[rows, None]
            np.exp(blk, out=blk)
            blk[np.arange(len(blk)), targets[rows]] -= 1.0  # softmax - onehot
            blk *= scale[rows, None]
        return logits @ w.data.T, x.data.T @ logits, logits.sum(axis=0), None, None

    out = weights @ (lse - logits[np.arange(n), targets])
    return (_record("linear_nll", out, (x, w, b, targets, weights), bw),
            int((best == targets).sum()))


@functools.lru_cache(maxsize=None)
def _gate_affine(hid: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    # sig(z) = 0.5*tanh(0.5*z) + 0.5 on the i, f, o blocks; tanh(z) on g
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), hid)
    return scale, 1.0 - scale


def lstm_sequence(x: Tensor, wx: Tensor, b: Tensor, wh: Tensor, lengths, h0: Tensor,
                  c0: Tensor, reverse: bool = False) -> tuple[Tensor, Tensor]:
    """Run an LSTM from the state ``(h0, c0)`` (B, H) over each row's first
    ``lengths[r]`` steps of ``x`` (B, T, D), as one tape op; with ``reverse``
    each row is read from position ``lengths[r]-1`` back to 0.

    ``wx`` (D, 4H), ``b`` (4H,) and ``wh`` (H, 4H) hold the gates i, f, g, o
    column-wise. Step t computes ``z = x_t @ wx + b + h @ wh``, then
    ``c = sig(z_f)*c + sig(z_i)*tanh(z_g)`` and ``h = sig(z_o)*tanh(c)``.
    Returns the hidden states (B, T, H), each at the position it read (padded
    positions are exactly 0, and no gradient reaches them), and each row's
    last cell state (B, H).

    Only real tokens are computed: rows are sorted longest first, so the rows
    active at step t are a prefix, and the real positions are packed
    time-major. The input projection is one GEMM over the packed positions,
    and the backward pass forms ``d x``, ``d wx``, ``d b`` and ``d wh`` over
    the packed rows with one GEMM each.
    """
    lengths = np.asarray(lengths)
    if x.ndim != 3 or wh.ndim != 2 or wh.shape[1] != 4 * wh.shape[0] \
            or wx.shape != (x.shape[2], wh.shape[1]) or b.shape != (wh.shape[1],) \
            or h0.shape != (x.shape[0], wh.shape[0]) or c0.shape != h0.shape:
        raise ShapeError(f"lstm_sequence: need x (B,T,D), wx (D,4H), b (4H,), wh (H,4H) and "
                         f"h0, c0 (B,H), got {x.shape}, {wx.shape}, {b.shape}, {wh.shape}, "
                         f"{h0.shape} and {c0.shape}")
    if lengths.shape != x.shape[:1] or lengths.dtype.kind != "i":
        raise ShapeError(f"lstm_sequence: need signed integer lengths (B,) for x {x.shape}, "
                         f"got {lengths!r}")
    order = (-lengths).argsort(kind="stable")
    longest_first = lengths[order]
    if longest_first[-1] < 1 or longest_first[0] > x.shape[1]:
        raise ShapeError(f"lstm_sequence: lengths must lie in [1, {x.shape[1]}], "
                         f"got {lengths!r}")
    bsz, hid = h0.shape
    dtype = x.dtype
    # state row k is sorted row j_of[k] after step s_of[k] - 1: block s has n[s]
    # rows from offs[s] on, block 0 holds the B initial states, and the
    # previous states of block s are the first n[s] rows of block s-1
    s_of, j_of = (longest_first >= np.arange(x.shape[1] + 1)[:, None]).nonzero()
    n = np.bincount(s_of)
    offs = n.cumsum() - n
    rows = order[j_of[bsz:]]
    pos = lengths[rows] - s_of[bsz:] if reverse else s_of[bsz:] - 1
    scale, shift = _gate_affine(hid, dtype)
    # z, then the gate activations, of each state row (rows [0, B) unused)
    acts = np.empty((len(s_of), 4 * hid), dtype=dtype)
    np.matmul(x.data[rows, pos], wx.data, out=acts[bsz:])
    acts[bsz:] += b.data
    hs = np.empty((len(s_of), hid), dtype=dtype)
    cs = np.empty_like(hs)
    tcs = np.empty_like(hs)
    hs[:bsz], cs[:bsz] = h0.data[order], c0.data[order]
    for s, m in enumerate(n[1:], start=1):
        prev, now = slice(offs[s - 1], offs[s - 1] + m), slice(offs[s], offs[s] + m)
        a = acts[now]
        a += hs[prev] @ wh.data
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        i, f, g, o = a.reshape(m, 4, hid).swapaxes(0, 1)
        np.add(f * cs[prev], i * g, out=cs[now])
        np.tanh(cs[now], out=tcs[now])
        np.multiply(o, tcs[now], out=hs[now])

    def bw(grads):  # of the hidden states and of the last cell states
        gs = grads[0][rows, pos]
        dz = np.empty_like(acts)
        dh = np.zeros((bsz, hid), dtype=dtype)
        dc = grads[1][order]  # a row's last-cell gradient enters at its last step
        wh_t = np.ascontiguousarray(wh.data.T)
        for s in reversed(range(1, len(n))):
            m = n[s]
            prev, now = slice(offs[s - 1], offs[s - 1] + m), slice(offs[s], offs[s] + m)
            i, f, g, o = acts[now].reshape(m, 4, hid).swapaxes(0, 1)
            dz_i, dz_f, dz_g, dz_o = dz[now].reshape(m, 4, hid).swapaxes(0, 1)
            dh_t, dc_t = dh[:m], dc[:m]
            dh_t += gs[offs[s] - bsz:offs[s] - bsz + m]
            tc = tcs[now]
            dc_t += dh_t * o * (1.0 - tc * tc)
            np.multiply(dh_t * tc, o * (1.0 - o), out=dz_o)
            np.multiply(dc_t * g, i * (1.0 - i), out=dz_i)
            np.multiply(dc_t * cs[prev], f * (1.0 - f), out=dz_f)
            np.multiply(dc_t * i, 1.0 - g * g, out=dz_g)
            dc_t *= f
            dh_t[:] = dz[now] @ wh_t
        # the previous state of state row k in block s > 0 is row k - n[s-1]
        h_prev = hs[np.arange(bsz, len(hs)) - np.repeat(n[:-1], n[1:])]
        dz = dz[bsz:]
        back = order.argsort()  # the sorted place of each row
        return (_Part((rows, pos), dz @ wx.data.T), x.data[rows, pos].T @ dz, dz.sum(axis=0),
                h_prev.T @ dz, None, dh[back], dc[back])

    out = np.zeros(x.shape[:2] + (hid,), dtype=dtype)
    out[rows, pos] = hs[bsz:]
    c_last = np.empty_like(cs[:bsz])
    c_last[order] = cs[offs[longest_first] + np.arange(bsz)]
    return _record("lstm_sequence", (out, c_last), (x, wx, b, wh, lengths, h0, c0), bw)


def dropout_mask(shape, p: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """The multiplier of inverted dropout at rate ``p``: each unit is 0 with
    probability ``p`` and 1/(1-p) otherwise, one ``rng.random`` draw per unit."""
    if p >= 1.0:
        raise ValueError("dropout: rate must be < 1")
    return (rng.random(shape) >= p).astype(dtype) / np.asarray(1.0 - p, dtype=dtype)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p), so inference applies
    no rescaling. The sampled mask enters the graph as a constant. A rate of
    0 returns ``x`` itself and draws nothing from ``rng``."""
    if p <= 0.0:
        return x
    return mul(x, Tensor(dropout_mask(x.shape, p, rng, x.dtype)))


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

