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
    "mul",
    "matmul",
    "concat",
    "reshape",
    "sigmoid",
    "tanh",
    "reduce_max",
    "reduce_sum",
    "take_rows",
    "linear_nll",
    "bilinear_attention",
    "lstm_sequence",
    "fusion_gate",
    "dropout_keep",
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


def _output(data, requires_grad: bool) -> Tensor:
    # an op's output is a float array already: no conversion to check for
    t = Tensor.__new__(Tensor)
    t.data, t.requires_grad, t.grad = np.asarray(data), requires_grad, None
    return t


def _record(name: str, out_data, inputs: tuple, backward_fn: Callable[..., Sequence]):
    req = False
    for t in inputs:
        if isinstance(t, Tensor) and t.requires_grad:
            req = True
            break
    out = tuple([_output(d, req) for d in out_data]) if isinstance(out_data, tuple) \
        else _output(out_data, req)
    if req and _GRAPH_STACK:
        _GRAPH_STACK[-1].ops.append((name, inputs, out, backward_fn))
    return out


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


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shape("add", a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record("add", a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shape("mul", a, b)

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _record("mul", a.data * b.data, (a, b), bw)


def matmul(a: Tensor, b: Tensor, at=None) -> Tensor:
    """``a @ b`` for a 2-D right operand (a weight), applied to all leading
    dims of ``a`` as one folded GEMM, forward and backward; with ``at``, a key
    into ``a``'s leading dims that picks each row once, only the rows
    ``a[at]`` are multiplied and the rest of the result is 0."""
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: need a (..., K) and a 2-D b (K, N), got {a.shape} and "
                         f"{b.shape}")

    if at is not None:
        def bw_rows(g):
            g_at = g[at]
            return _Part(at, g_at @ b.data.T), a.data[at].T @ g_at

        out = np.zeros(a.shape[:-1] + (b.shape[1],), dtype=np.result_type(a.data, b.data))
        out[at] = a.data[at] @ b.data
        return _record("matmul", out, (a, b), bw_rows)

    a2 = a.data.reshape(-1, a.shape[-1])

    def bw_folded(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

    out = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],))
    return _record("matmul", out, (a, b), bw_folded)


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


def _sig(x: np.ndarray) -> np.ndarray:
    # the tanh form is one transcendental per element and cannot overflow
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(x: Tensor) -> Tensor:
    out = _sig(x.data)

    def bw(g):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _record("tanh", out, (x,), bw)


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
        if key.dtype.kind not in "iu":
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


def bilinear_attention(states: Tensor, projected: Tensor, lengths, s: Tensor,
                       u_s: Tensor) -> tuple[Tensor, np.ndarray]:
    """Attention as one op. Row b scores its first ``lengths[b]`` positions by
    ``projected[b] @ (s[b] @ u_s)`` and returns the softmax-weighted summary
    ``alpha[b] @ states[b]`` (B, D) with the weights ``alpha`` (B, T), which
    are not differentiated, for ``states`` (B, T, D), their projection
    ``projected`` (B, T, A), ``s`` (B, S) and ``u_s`` (S, A). Padded positions
    score -inf: their weights and gradients are exactly 0. The backward pass
    keeps only ``q = s @ u_s`` and the weights."""
    lengths = np.asarray(lengths)
    b, t = states.shape[:2] if states.ndim == 3 else (-1, 0)
    if t == 0 or projected.shape[:2] != (b, t) or u_s.ndim != 2 \
            or projected.shape[2:] != u_s.shape[1:] or s.shape != (b, u_s.shape[0]) \
            or lengths.shape != (b,) or not 1 <= lengths.min() <= lengths.max() <= t:
        raise ShapeError(f"bilinear_attention: need nonempty states (B,T,D), projected "
                         f"(B,T,A), s (B,S), u_s (S,A) and lengths (B,) in [1, T], got "
                         f"{states.shape}, {projected.shape}, {s.shape}, {u_s.shape}, {lengths!r}")
    q = s.data @ u_s.data
    scores = np.matmul(projected.data, q.reshape(b, -1, 1)).reshape(b, t)
    scores[np.arange(t) >= lengths[:, None]] = -np.inf
    scores -= scores.max(axis=1, keepdims=True)
    alpha = np.exp(scores, out=scores)
    alpha /= alpha.sum(axis=1, keepdims=True)

    def bw(g):
        g = g.reshape(b, 1, -1)
        d_alpha = np.matmul(g, states.data.swapaxes(1, 2)).reshape(b, t)
        d_alpha -= (d_alpha * alpha).sum(axis=1, keepdims=True)
        d_scores = (alpha * d_alpha).reshape(b, t, 1)
        d_q = np.matmul(projected.data.swapaxes(1, 2), d_scores).reshape(b, -1)
        return (alpha.reshape(b, t, 1) * g, d_scores * q.reshape(b, 1, -1), None,
                d_q @ u_s.data.T, s.data.T @ d_q)

    summary = np.matmul(alpha.reshape(b, 1, t), states.data).reshape(b, -1)
    return _record("bilinear_attention", summary, (states, projected, lengths, s, u_s),
                   bw), alpha


@functools.lru_cache(maxsize=None)
def _gate_affine(hid: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    # sig(z) = 0.5*tanh(0.5*z) + 0.5 on the i, f, o blocks; tanh(z) on g
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), hid)
    return scale, 1.0 - scale


def lstm_sequence(x: Tensor, wx, b, wh, lengths, h0: Tensor, c0: Tensor, reverse=False,
                  drop: Optional[tuple[np.ndarray, float]] = None
                  ) -> tuple[Tensor, Tensor, Tensor]:
    """Run an LSTM from the state ``(h0, c0)`` (B, H) over each row's first
    ``lengths[r]`` steps of ``x`` (B, T, D), as one tape op; with ``reverse``
    each row is read from position ``lengths[r]-1`` back to 0.

    ``wx`` (D, 4H), ``b`` (4H,) and ``wh`` (H, 4H) hold the gates i, f, g, o
    column-wise. Step t computes ``z = x_t @ wx + b + h @ wh``, then
    ``c = sig(z_f)*c + sig(z_i)*tanh(z_g)`` and ``h = sig(z_o)*tanh(c)``.
    Returns the hidden states (B, T, H), each at the position it read (padded
    positions are exactly 0, and no gradient reaches them), and each row's
    last hidden and cell states (B, H).

    Several directions over one input, such as the two of a bidirectional
    layer, run as one op: ``wx``, ``b``, ``wh`` and ``reverse`` are then
    tuples with one entry per direction, and direction k owns columns
    ``k*H:(k+1)*H`` of the hidden states, of ``h0``/``c0`` and of the last
    states; each runs all its steps before the next starts, so at a few rows
    its recurrent weights stay in cache. ``drop = (keep, p)`` is inverted dropout
    on ``x``: each packed input is multiplied by 1/(1-p) where the boolean
    (B, T, D) mask ``keep`` holds and by 0 elsewhere, and only the mask is
    kept.

    Only real tokens are computed. The state rows are time-major: block s
    holds the rows active at step s (block 0 the initial states), a prefix of
    the rows sorted longest first, so step s reads its previous states from
    the first rows of block s-1. When rows differ in length, they are sorted
    and their real positions gathered ("packed"); when every row runs all T
    steps, each block is all B rows in batch order, and the inputs and
    outputs are time-major views of ``x`` and of the hidden states, with no
    sort or gather. The input projection is one GEMM over the state rows,
    and the backward pass forms ``d x``, ``d wx``, ``d b`` and ``d wh`` over
    them with one GEMM each. It keeps the gate activations and the cell
    states; it recomputes ``tanh(c)`` and reads ``h`` back from the op's own
    output.
    """
    wxs, bs, whs, revs = (v if isinstance(v, tuple) else (v,) for v in (wx, b, wh, reverse))
    dirs = len(whs)
    hid = whs[0].shape[0]
    lengths = np.asarray(lengths)
    if x.ndim != 3 or not len(wxs) == len(bs) == len(revs) == dirs \
            or any(w_h.shape != (hid, 4 * hid) or w_x.shape != (x.shape[2], 4 * hid)
                   or b_.shape != (4 * hid,) for w_x, b_, w_h in zip(wxs, bs, whs)) \
            or h0.shape != (x.shape[0], dirs * hid) or c0.shape != h0.shape \
            or (drop is not None and drop[0].shape != x.shape):
        raise ShapeError(f"lstm_sequence: need x (B,T,D), per direction wx (D,4H), b (4H,) "
                         f"and wh (H,4H), h0, c0 (B, directions*H) and a keep mask like x, "
                         f"got {x.shape}, {[t.shape for t in wxs]}, {[t.shape for t in bs]}, "
                         f"{[t.shape for t in whs]}, {h0.shape}, {c0.shape} and keep "
                         f"mask {None if drop is None else drop[0].shape}")
    if lengths.shape != x.shape[:1] or lengths.dtype.kind != "i":
        raise ShapeError(f"lstm_sequence: need signed integer lengths (B,) for x {x.shape}, "
                         f"got {lengths!r}")
    bsz, steps = x.shape[:2]
    full = not np.count_nonzero(lengths != steps)  # every row runs all T steps
    dtype = x.dtype
    cols = [slice(k * hid, (k + 1) * hid) for k in range(dirs)]
    scale, shift = _gate_affine(hid, dtype)

    # the layout of the state rows: block s has n[s] rows from offs[s] on;
    # ``order`` picks the sorted rows of a (B, ...) array, ``steps_of(a, k)``
    # direction k's inputs at its state rows past block 0 from a (B, T, ...)
    # array, ``outputs`` makes the op's outputs from each direction's hidden
    # and cell states, and ``x_grad(dx, k)`` makes direction k's gradient of
    # ``x`` from one row per state row past block 0
    if full:
        n, offs = [bsz] * (steps + 1), range(0, (steps + 1) * bsz, bsz)
        order, last = slice(None), slice(steps * bsz, None)

        def steps_of(a, k):
            a = a.swapaxes(0, 1)
            return (a[::-1] if revs[k] else a).reshape((steps * bsz,) + a.shape[2:])

        def unsteps(p, k):  # steps_of's inverse, as a view of p
            p = p.reshape((steps, bsz) + p.shape[1:])
            return (p[::-1] if revs[k] else p).swapaxes(0, 1)

        def outputs(hs, cs):  # views of the states when one direction runs
            if dirs == 1:
                return unsteps(hs[0][bsz:], 0), hs[0][last], cs[0][last]
            return (np.concatenate([unsteps(h[bsz:], k) for k, h in enumerate(hs)], axis=2),
                    np.concatenate([h[last] for h in hs], axis=1),
                    np.concatenate([c[last] for c in cs], axis=1))

        x_grad = unsteps

        def prev_rows():
            return slice(0, steps * bsz)
    else:
        order = (-lengths).argsort(kind="stable")
        longest_first = lengths[order]
        if longest_first[-1] < 1 or longest_first[0] > steps:
            raise ShapeError(f"lstm_sequence: lengths must lie in [1, {steps}], "
                             f"got {lengths!r}")
        # state row k is sorted row j_of[k] after step s_of[k] - 1
        s_of, j_of = (longest_first >= np.arange(steps + 1)[:, None]).nonzero()
        n = np.bincount(s_of)
        offs = n.cumsum() - n
        last = offs[longest_first] + np.arange(bsz)
        rows = order[j_of[bsz:]]
        poss = [lengths[rows] - s_of[bsz:] if rev else s_of[bsz:] - 1 for rev in revs]

        def steps_of(a, k):
            return a[rows, poss[k]]

        def outputs(hs, cs):
            out = np.zeros((bsz, steps, dirs * hid), dtype=dtype)
            h_last, c_last = np.empty_like(h0.data), np.empty_like(c0.data)
            for k, (h, c) in enumerate(zip(hs, cs)):
                out[rows, poss[k], cols[k]] = h[bsz:]
                h_last[order, cols[k]], c_last[order, cols[k]] = h[last], c[last]
            return out, h_last, c_last

        def x_grad(dx, k):
            return _Part((rows, poss[k]), dx)

        def prev_rows():  # the previous state of state row k in block s > 0 is row k - n[s-1]
            return np.arange(bsz, len(s_of)) - np.repeat(n[:-1], n[1:])

    def kept(k):  # the dropout multiplier of direction k's inputs
        keep, p = drop
        return steps_of(keep, k).astype(dtype) / np.asarray(1.0 - p, dtype=dtype)

    def packed(k):  # direction k's inputs at its state rows, after dropout
        xp = steps_of(x.data, k)
        if drop is None:
            return xp
        mult = kept(k)
        mult *= xp  # into the new multiplier: xp is a view of x where no gather is needed
        return mult

    # per direction: z, then the gate activations, of each state row past the
    # B initial ones, and the cell states of all state rows
    states = offs[-1] + n[-1]
    acts = np.empty((dirs, states - bsz, 4 * hid), dtype=dtype)
    cs = np.empty((dirs, states, hid), dtype=dtype)
    hs = np.empty_like(cs)
    for k, (act, h, c, w_x, b_, w_h) in enumerate(zip(acts, hs, cs, wxs, bs, whs)):
        h[:bsz], c[:bsz] = h0.data[order, cols[k]], c0.data[order, cols[k]]
        np.matmul(packed(k), w_x.data, out=act)
        act += b_.data
        for s in range(1, len(n)):
            m = n[s]
            prev, now = slice(offs[s - 1], offs[s - 1] + m), slice(offs[s], offs[s] + m)
            a = act[offs[s] - bsz:offs[s] - bsz + m]
            a += h[prev] @ w_h.data
            a *= scale
            np.tanh(a, out=a)
            a *= scale
            a += shift
            i, f, g, o = a.reshape(m, 4, hid).swapaxes(0, 1)
            np.add(f * c[prev], i * g, out=c[now])
            np.multiply(o, np.tanh(c[now]), out=h[now])
    out, h_last, c_last = outputs(hs, cs)
    del hs

    def bptt(k, grads):
        """Direction k's backward: its gate pre-activation gradients dz, one
        row per state row past block 0, and the gradients of its initial
        state."""
        act, c, w_h = acts[k], cs[k], whs[k]
        g_h = steps_of(grads[0][:, :, cols[k]], k)
        dz = np.empty_like(act)
        # a row's last-state gradients enter at its last step (copies: the
        # recurrence adds into them)
        dh, dc = grads[1][order, cols[k]].copy(), grads[2][order, cols[k]].copy()
        # a copy of wh.T pays for itself over many steps, not over one
        wh_t = w_h.data.T if len(n) == 2 else np.ascontiguousarray(w_h.data.T)
        for s in reversed(range(1, len(n))):
            m = n[s]
            prev, now = slice(offs[s - 1], offs[s - 1] + m), slice(offs[s], offs[s] + m)
            packed_now = slice(offs[s] - bsz, offs[s] - bsz + m)
            i, f, g, o = act[packed_now].reshape(m, 4, hid).swapaxes(0, 1)
            dz_i, dz_f, dz_g, dz_o = dz[packed_now].reshape(m, 4, hid).swapaxes(0, 1)
            dh_t, dc_t = dh[:m], dc[:m]
            dh_t += g_h[packed_now]
            tc = np.tanh(c[now])
            dc_t += dh_t * o * (1.0 - tc * tc)
            np.multiply(dh_t * tc, o * (1.0 - o), out=dz_o)
            np.multiply(dc_t * g, i * (1.0 - i), out=dz_i)
            np.multiply(dc_t * c[prev], f * (1.0 - f), out=dz_f)
            np.multiply(dc_t * i, 1.0 - g * g, out=dz_g)
            dc_t *= f
            np.matmul(dz[packed_now], wh_t, out=dh_t)
        return dz, dh, dc

    def bw(grads):  # of the hidden states and of the last hidden and cell states
        back = slice(None) if full else order.argsort()  # each row's sorted place
        grads_in = []
        dh0, dc0 = np.empty_like(h0.data), np.empty_like(c0.data)
        # one direction at a time, so only one direction's dz is alive
        for k, w_x in enumerate(wxs):
            dz, dh, dc = bptt(k, grads)
            h_prev = np.concatenate([h0.data[order, cols[k]],
                                     steps_of(out[:, :, cols[k]], k)])[prev_rows()]
            dx = dz @ w_x.data.T
            if drop is not None:
                dx *= kept(k)
            grads_in += [x_grad(dx, k), packed(k).T @ dz, dz.sum(axis=0), h_prev.T @ dz]
            dh0[:, cols[k]], dc0[:, cols[k]] = dh[back], dc[back]
            del dz, dh, dc, h_prev, dx
        return (*grads_in, dh0, dc0)

    # x is listed once per direction: each direction's gradient of x lands on
    # its own, in that direction's order
    inputs = (*(t for cell in zip(wxs, bs, whs) for t in (x, *cell)), h0, c0)
    return _record("lstm_sequence", (out, h_last, c_last), inputs, bw)


def fusion_gate(s: Tensor, feats: Sequence[Tensor], var: Optional[int], pre: Tensor,
                w_zr: Tensor, w_s: Tensor, b_s: Tensor) -> Tensor:
    """The context-fusion gate as one op, for a state ``s`` (N, S) and the
    features ``f`` (N, F), the blocks ``feats`` side by side: with ``fs = [f;
    s]``, ``[z | r] = sig(fs @ w_zr + b_zr)``, ``s~ = tanh([r*f; s] @ w_s +
    b_s)`` and ``s' = (1-z)*s + z*s~``; ``w_zr`` is (F+S, S+F), the update
    gate's weights in its first S columns and the reset gate's in the F after
    them, and ``w_s`` is (F+S, S).

    Only ``s`` and the block ``feats[var]`` (no block if ``var`` is None) are
    multiplied here, by their rows of ``w_zr``. ``pre``, (N, S+F) or (S+F,),
    holds the rest of the pre-activation: ``b_zr`` plus the other blocks times
    their rows of ``w_zr``. A decoder whose other blocks do not change
    computes it once (``layers.gate_constants``), and its gradient is that of
    ``pre``.

    The backward pass keeps only ``z``, ``r`` and ``s~``, and rebuilds ``[r*f;
    s]`` from its inputs. The gradient of ``w_zr`` is parts, one row slice for
    ``s`` and one for ``feats[var]``, the rows that this op multiplies."""
    n = s.shape[0]
    widths = [t.shape[1] if t.ndim == 2 and t.shape[0] == n else -1 for t in feats]
    nf, ns = sum(widths), s.shape[-1]
    if s.ndim != 2 or -1 in widths or not (var is None or 0 <= var < len(feats)) \
            or w_zr.shape != (nf + ns, ns + nf) or w_s.shape != (nf + ns, ns) \
            or b_s.shape != (ns,) or pre.shape not in ((ns + nf,), (n, ns + nf)):
        raise ShapeError(f"fusion_gate: need s (N,S), feature blocks (N,F_k) of F columns, "
                         f"pre (N,S+F) or (S+F,), w_zr (F+S,S+F), w_s (F+S,S) and b_s (S,), "
                         f"got {s.shape}, {[t.shape for t in feats]}, {pre.shape}, "
                         f"{w_zr.shape}, {w_s.shape} and {b_s.shape}")
    f = feats[0].data if len(feats) == 1 else np.concatenate([t.data for t in feats], axis=1)
    # the rows of w_zr that this op multiplies: those of s and feats[var]
    state = slice(nf, nf + ns)
    zr = s.data @ w_zr.data[state]
    zr += pre.data
    if var is not None:
        start = sum(widths[:var])
        block = slice(start, start + widths[var])
        zr += feats[var].data @ w_zr.data[block]
    zr = _sig(zr)
    z, r = zr[:, :ns], zr[:, ns:]
    cand = np.tanh(np.concatenate([r * f, s.data], axis=1) @ w_s.data + b_s.data)

    def bw(g):
        rfs = np.concatenate([r * f, s.data], axis=1)
        d_s = g * (1.0 - z)
        d_z = g * cand + -(g * s.data)
        d_pre_s = g * z * (1.0 - cand * cand)
        d_rfs = d_pre_s @ w_s.data.T
        d_s = d_s + d_rfs[:, nf:]
        d_f = d_rfs[:, :nf] * r
        d_pre = np.empty_like(zr)
        np.multiply(d_z * z, 1.0 - z, out=d_pre[:, :ns])
        np.multiply(d_rfs[:, :nf] * f * r, 1.0 - r, out=d_pre[:, ns:])
        d_s += d_pre @ w_zr.data[state].T
        if var is not None:
            d_f[:, block] += d_pre @ w_zr.data[block].T
        d_feats = np.split(d_f, np.cumsum(widths[:-1]), axis=1)
        grads = (d_s, *d_feats, _unbroadcast(d_pre, pre.shape), _Part(state, s.data.T @ d_pre),
                 rfs.T @ d_pre_s, d_pre_s.sum(axis=0))
        if var is None:
            return grads
        return (*grads, _Part(block, feats[var].data.T @ d_pre))

    out = (1.0 - z) * s.data + z * cand
    # with a varying block, w_zr is listed twice: its gradient lands as two
    # row slices, at the state's rows and at the block's
    inputs = (s, *feats, pre, w_zr, w_s, b_s)
    return _record("fusion_gate", out, inputs if var is None else (*inputs, w_zr), bw)


def dropout_keep(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """The keep mask of dropout at rate ``p``: each unit is kept (True) with
    probability 1-p, one ``rng.random`` draw per unit."""
    if p >= 1.0:
        raise ValueError("dropout: rate must be < 1")
    return rng.random(shape) >= p


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

