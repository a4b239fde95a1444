"""Reference implementation of the encoder-decoder as a reverse-mode graph.

Every operation returns a `Value` carrying the result and a closure that
routes the incoming gradient to its parents; `backward()` replays the graph
in reverse topological order. The model here is built from per-gate
matrices and one vector op at a time, the way the paper writes it, so it
shares no arithmetic with the fused hand-derived passes in `cure.autodiff`
and `cure.model`; tests check those passes against this graph, and this
graph against finite differences and the scalar oracles in helpers.py.

Gradients accumulate with +=, so calling backward() twice without zeroing
doubles them. Non-finite data or gradients are a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from cure.errors import NumericError, ValidationError
from cure.model import ModelConfig, ModelParams, PathIds


class Value:
    """One graph node: a float64 array plus its accumulated gradient."""

    __slots__ = ("data", "grad", "name", "_parents", "_backprop")

    def __init__(self, data, name: str = "", _parents: tuple = (), _backprop=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite values in node {name or 'value'!r}")
        self.data = arr
        self.grad = np.zeros_like(arr)
        self.name = name
        self._parents = _parents
        self._backprop = _backprop

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def _require_same_shape(a: Value, b: Value, op: str) -> None:
    if a.shape != b.shape:
        raise ValidationError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Value, b: Value) -> Value:
    _require_same_shape(a, b, "add")

    def backprop(g):
        a.grad += g
        b.grad += g

    return Value(a.data + b.data, name="add", _parents=(a, b), _backprop=backprop)


def add_n(parts: Sequence[Value]) -> Value:
    """Elementwise sum of same-shaped values."""
    if not parts:
        raise ValidationError("add_n: empty input")
    for p in parts[1:]:
        _require_same_shape(parts[0], p, "add_n")

    def backprop(g):
        for p in parts:
            p.grad += g

    total = parts[0].data.copy()
    for p in parts[1:]:
        total += p.data
    return Value(total, name="add_n", _parents=tuple(parts), _backprop=backprop)


def mul(a: Value, b: Value) -> Value:
    """Hadamard product."""
    _require_same_shape(a, b, "mul")

    def backprop(g):
        a.grad += g * b.data
        b.grad += g * a.data

    return Value(a.data * b.data, name="mul", _parents=(a, b), _backprop=backprop)


def one_minus(a: Value) -> Value:
    def backprop(g):
        a.grad -= g

    return Value(1.0 - a.data, name="one_minus", _parents=(a,), _backprop=backprop)


def scale(a: Value, c: float) -> Value:
    def backprop(g):
        a.grad += c * g

    return Value(c * a.data, name="scale", _parents=(a,), _backprop=backprop)


def matvec(w: Value, x: Value) -> Value:
    if w.data.ndim != 2 or x.data.ndim != 1 or w.shape[1] != x.shape[0]:
        raise ValidationError(f"matvec: incompatible shapes {w.shape} @ {x.shape}")

    def backprop(g):
        w.grad += np.outer(g, x.data)
        x.grad += w.data.T @ g

    return Value(w.data @ x.data, name="matvec", _parents=(w, x), _backprop=backprop)


def sigmoid(x: Value) -> Value:
    out = np.empty_like(x.data)
    pos = x.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backprop(g):
        x.grad += g * out * (1.0 - out)

    return Value(out, name="sigmoid", _parents=(x,), _backprop=backprop)


def tanh(x: Value) -> Value:
    out = np.tanh(x.data)

    def backprop(g):
        x.grad += g * (1.0 - out * out)

    return Value(out, name="tanh", _parents=(x,), _backprop=backprop)


def concat(parts: Sequence[Value]) -> Value:
    if not parts:
        raise ValidationError("concat: empty input")
    for p in parts:
        if p.data.ndim != 1:
            raise ValidationError("concat: only vectors can be concatenated")
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0, *sizes])

    def backprop(g):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            p.grad += g[lo:hi]

    return Value(np.concatenate([p.data for p in parts]), name="concat", _parents=tuple(parts), _backprop=backprop)


def blend(weights: Value, parts: Sequence[Value]) -> Value:
    """Weighted sum of k same-dimension vectors with a k-vector of weights."""
    if weights.data.ndim != 1 or len(parts) != weights.shape[0]:
        raise ValidationError("blend: weights length must match number of vectors")
    for p in parts[1:]:
        _require_same_shape(parts[0], p, "blend")

    out = np.zeros_like(parts[0].data)
    for w, p in zip(weights.data, parts):
        out += w * p.data

    def backprop(g):
        for i, p in enumerate(parts):
            weights.grad[i] += float(p.data @ g)
            p.grad += weights.data[i] * g

    return Value(out, name="blend", _parents=(weights, *parts), _backprop=backprop)


def softmax(x: Value) -> Value:
    z = x.data - x.data.max()
    e = np.exp(z)
    s = e / e.sum()

    def backprop(g):
        x.grad += s * (g - float(g @ s))

    return Value(s, name="softmax", _parents=(x,), _backprop=backprop)


def sum_all(x: Value) -> Value:
    def backprop(g):
        x.grad += g  # scalar broadcast

    return Value(x.data.sum(), name="sum_all", _parents=(x,), _backprop=backprop)


def row(table: Value, index: int) -> Value:
    """One row of a 2-d table; the gradient accumulates into that row."""
    if table.data.ndim != 2:
        raise ValidationError("row: table must be 2-dimensional")
    if not 0 <= index < table.shape[0]:
        raise ValidationError(f"row: index {index} out of range")

    def backprop(g):
        table.grad[index] += g

    return Value(table.data[index].copy(), name="row", _parents=(table,), _backprop=backprop)


def softmax_cross_entropy(logits: Value, target: int) -> Value:
    """-log softmax(logits)[target], computed with max subtraction."""
    if logits.data.ndim != 1:
        raise ValidationError("softmax_cross_entropy: logits must be a vector")
    if not 0 <= target < logits.shape[0]:
        raise ValidationError(f"softmax_cross_entropy: target {target} out of range")
    z = logits.data
    m = z.max()
    e = np.exp(z - m)
    total = e.sum()
    loss = math.log(total) + m - z[target]
    probs = e / total

    def backprop(g):
        delta = probs.copy()
        delta[target] -= 1.0
        logits.grad += float(g) * delta

    return Value(loss, name="xent", _parents=(logits,), _backprop=backprop)


def backward(loss: Value) -> None:
    """Accumulate gradients of everything reachable from a scalar loss.

    Each call propagates exactly one unit of adjoint from the loss, so a
    second call without zeroing doubles every gradient. The pass runs on
    scratch buffers and adds its result onto the persistent grads at the end.
    """
    if loss.data.size != 1:
        raise ValidationError("backward: loss must be a scalar")

    topo: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    saved = [node.grad for node in topo]
    for node in topo:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)

    for node in reversed(topo):
        if node._backprop is None:
            continue
        if not np.all(np.isfinite(node.grad)):
            raise NumericError(f"non-finite gradient at node {node.name!r}")
        node._backprop(node.grad)

    for node, prior in zip(topo, saved):
        prior += node.grad
        node.grad = prior


# ---------------------------------------------------------------------------
# Recurrent cells
# ---------------------------------------------------------------------------


def glorot(rng: np.random.Generator, shape, name: str) -> Value:
    """Fan-scaled uniform init for weight matrices."""
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return Value(rng.uniform(-bound, bound, size=shape), name=name)


@dataclass
class LstmParams:
    """Gate weights: W_* act on the previous hidden state, U_* on the input."""

    W_o: Value
    U_o: Value
    b_o: Value
    W_f: Value
    U_f: Value
    b_f: Value
    W_i: Value
    U_i: Value
    b_i: Value
    W_c: Value
    U_c: Value
    b_c: Value

    @classmethod
    def init(cls, hidden: int, input_dim: int, rng: np.random.Generator, prefix: str) -> "LstmParams":
        kwargs = {}
        for gate in ("o", "f", "i", "c"):
            kwargs[f"W_{gate}"] = glorot(rng, (hidden, hidden), f"{prefix}.W_{gate}")
            kwargs[f"U_{gate}"] = glorot(rng, (hidden, input_dim), f"{prefix}.U_{gate}")
            kwargs[f"b_{gate}"] = Value(np.zeros(hidden), name=f"{prefix}.b_{gate}")
        return cls(**kwargs)

    def values(self) -> list[Value]:
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class LstmState:
    h: Value
    c: Value

    @classmethod
    def zeros(cls, hidden: int) -> "LstmState":
        return cls(h=Value(np.zeros(hidden)), c=Value(np.zeros(hidden)))


@dataclass
class GruParams:
    """Gate weights: W_* act on the input, U_* on the previous hidden state."""

    W_z: Value
    U_z: Value
    b_z: Value
    W_r: Value
    U_r: Value
    b_r: Value
    W_h: Value
    U_h: Value
    b_h: Value

    @classmethod
    def init(cls, hidden: int, input_dim: int, rng: np.random.Generator, prefix: str) -> "GruParams":
        kwargs = {}
        for gate in ("z", "r", "h"):
            kwargs[f"W_{gate}"] = glorot(rng, (hidden, input_dim), f"{prefix}.W_{gate}")
            kwargs[f"U_{gate}"] = glorot(rng, (hidden, hidden), f"{prefix}.U_{gate}")
            kwargs[f"b_{gate}"] = Value(np.zeros(hidden), name=f"{prefix}.b_{gate}")
        return cls(**kwargs)

    def values(self) -> list[Value]:
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class GruState:
    h: Value

    @classmethod
    def zeros(cls, hidden: int) -> "GruState":
        return cls(h=Value(np.zeros(hidden)))


def lstm_step(x: Value, prev: LstmState, p: LstmParams) -> LstmState:
    """One LSTM step: output/forget/input gates, candidate cell, new cell and hidden."""
    o = sigmoid(add_n([matvec(p.W_o, prev.h), matvec(p.U_o, x), p.b_o]))
    f = sigmoid(add_n([matvec(p.W_f, prev.h), matvec(p.U_f, x), p.b_f]))
    i = sigmoid(add_n([matvec(p.W_i, prev.h), matvec(p.U_i, x), p.b_i]))
    c_hat = tanh(add_n([matvec(p.W_c, prev.h), matvec(p.U_c, x), p.b_c]))
    c = add(mul(f, prev.c), mul(i, c_hat))
    h = mul(o, tanh(c))
    return LstmState(h=h, c=c)


def gru_step(x: Value, prev: GruState, p: GruParams) -> GruState:
    """One GRU step: the update gate keeps z of the old state and blends in
    (1 - z) of the reset-gated candidate."""
    z = sigmoid(add_n([matvec(p.W_z, x), matvec(p.U_z, prev.h), p.b_z]))
    r = sigmoid(add_n([matvec(p.W_r, x), matvec(p.U_r, prev.h), p.b_r]))
    candidate = tanh(add_n([matvec(p.W_h, x), matvec(p.U_h, mul(r, prev.h)), p.b_h]))
    h = add(mul(z, prev.h), mul(one_minus(z), candidate))
    return GruState(h=h)


def finite_difference(
    loss_fn: Callable[[], float],
    tensors: dict[str, np.ndarray],
    step: float = 1e-4,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of loss_fn with respect to every tensor
    entry, perturbing the live arrays in place."""
    grads: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        grad = np.zeros(arr.shape)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_fn()
            arr[idx] = orig - step
            lo = loss_fn()
            arr[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * step)
        grads[name] = grad
    return grads


# ---------------------------------------------------------------------------
# The encoder-decoder as a graph
# ---------------------------------------------------------------------------


def graph_tensors(params: ModelParams) -> dict[str, Value]:
    """A graph leaf per checkpoint-named tensor, holding a copy of its data."""
    return {name: Value(arr.copy(), name=name) for name, arr in params.arrays().items()}


def _cell(cls, tensors: dict[str, Value], prefix: str):
    return cls(**{f.name: tensors[f"{prefix}.{f.name}"] for f in fields(cls)})


def encode_blocks(tensors: dict[str, Value], cfg: ModelConfig, path: PathIds) -> list[Value]:
    """Per-position concatenated forward/backward LSTM states of one path."""
    xs = [
        concat([row(tensors["word_emb"], w), row(tensors["dep_emb"], d), row(tensors["pos_emb"], p)])
        for w, d, p in zip(path.word_ids, path.dep_ids, path.pos_ids)
    ]
    forward = []
    state = LstmState.zeros(cfg.n_h)
    cell = _cell(LstmParams, tensors, "enc_fwd")
    for x in xs:
        state = lstm_step(x, state, cell)
        forward.append(state.h)
    backward_rev = []
    state = LstmState.zeros(cfg.n_h2)
    cell = _cell(LstmParams, tensors, "enc_bwd")
    for x in reversed(xs):
        state = lstm_step(x, state, cell)
        backward_rev.append(state.h)
    return [concat([f, b]) for f, b in zip(forward, backward_rev[::-1])]


def decode_path(tensors: dict[str, Value], cfg: ModelConfig, blocks: Sequence[Value]) -> list[Value]:
    """Word logits for all n_l steps, attending over the blocks."""
    hidden = GruState.zeros(cfg.n_g)
    context_prev = Value(np.zeros(cfg.n_g))
    cell = _cell(GruParams, tensors, "dec")
    logits = []
    for _ in range(cfg.n_l):
        weights = softmax(add(matvec(tensors["attn_w"], hidden.h), tensors["attn_b"]))
        focus = blend(weights, list(blocks))
        context = matvec(tensors["ctx_w"], concat([focus, context_prev]))
        hidden = gru_step(context, hidden, cell)
        logits.append(add(matvec(tensors["out_w"], hidden.h), tensors["out_b"]))
        context_prev = context
    return logits


def training_loss(tensors: dict[str, Value], cfg: ModelConfig, group: Sequence[PathIds], held_out: int) -> Value:
    """Cross entropy of predicting path `held_out` from the group's other
    paths, averaged over the target's unpadded length."""
    target = group[held_out]
    per_path = [encode_blocks(tensors, cfg, p) for i, p in enumerate(group) if i != held_out]
    summed = [add_n([blocks[i] for blocks in per_path]) for i in range(cfg.n_l)]
    logits = decode_path(tensors, cfg, summed)
    n = target.true_length
    return scale(add_n([softmax_cross_entropy(logits[i], target.word_ids[i]) for i in range(n)]), 1.0 / n)
