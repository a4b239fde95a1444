"""Hand-derived forward and backward passes for the encoder-decoder's cells.

Gates are fused so that one matmul computes all of them. An LSTM stacks its
output, forget, input and candidate gates (o, f, i, c) as the row blocks of
one 4h-row `W` (acting on the previous hidden state), `U` (acting on the
input) and `b`; one step then takes one matmul with each over every
sequence of the batch. The encoder's forward and backward LSTMs run as one
recurrence: each direction's products are those it would compute alone, so
the results are bit-identical to two single-direction runs, and the gates'
elementwise math runs once per step for both. Each step loop holds only
what depends on the previous step; the backward pass computes the factors
that do not, for all steps at once. A forward pass run without history
keeps one step of cell states and gates, for a caller that needs only the
hidden states.

A GRU stacks its update, reset and candidate gates (z, r, h) the same way,
except that here `W` acts on the input and `U` on the hidden state; the
candidate's `U` rows multiply the reset-gated state, so they run as a second
matmul. The decoder steps its GRU in model, where each step's input is
computed from the last state; the weight gradients, which follow from all
steps at once, are here. Each backward pass reuses the activations its
forward pass cached, and adds its weight gradients into caller-owned
arrays, so a batch's gradients accumulate with +=.

Also here: softmax cross entropy, global-norm gradient clipping and the SGD
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRAD_CLIP_NORM = 5.0

LSTM_GATES = ("o", "f", "i", "c")
GRU_GATES = ("z", "r", "h")


@dataclass
class CellWeights:
    """One recurrent cell's fused weights (or their gradients), gate blocks
    stacked by row. A dataclass, not a NamedTuple: gradients accumulate
    through grad.W += ..., which a tuple's read-only fields refuse."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, as 1/2 + tanh(x/2)/2: no overflow for either sign.
    Written into out when given."""
    out = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.add(np.multiply(out, 0.5, out=out), 0.5, out=out)


# ---------------------------------------------------------------------------
# Bidirectional LSTM over a batch of sequences, both directions stepped together
# ---------------------------------------------------------------------------


@dataclass
class BiLstmCache:
    """Activations of one bidirectional forward pass, as its backward pass
    needs them. Each step's units are one flat row of m = B (h0 + h1):
    direction 0's batch (B, h0), then direction 1's (B, h1). A pass run
    without history keeps one step of cs, gates and tanh_c, the last, and
    serves no backward pass."""

    xs: np.ndarray  # (T, B, d) inputs, in input order
    hs: np.ndarray  # (T + 1, m) hidden states, each direction's in its own step order; hs[0] = 0
    cs: np.ndarray  # (T + 1, m) cell states, cs[0] = 0; without history (1, m)
    gates: np.ndarray  # (T, 4, m) o, f, i after the sigmoid, candidate after tanh; without history (1, 4, m)
    tanh_c: np.ndarray  # (T, m); without history (1, m)
    cut: int  # B h0, where direction 1's units start

    def by_direction(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each direction's (..., B, h) view of flat rows (..., m)."""
        shape = (*rows.shape[:-1], self.xs.shape[1], -1)
        return rows[..., : self.cut].reshape(shape), rows[..., self.cut :].reshape(shape)


def bilstm_forward(cells: tuple[CellWeights, CellWeights], xs: np.ndarray, history: bool = True) -> BiLstmCache:
    """Run a forward-in-time LSTM (cells[0]) and a backward-in-time one
    (cells[1]) over xs (T, B, d) from zero state, one step of both at a
    time. Their hidden states are cache.by_direction(cache.hs[1:]). With
    history False, every step overwrites one step's cell state, gates and
    tanh(c) in place, for a caller that needs only the hidden states; the
    products and their results are the same."""
    steps, batch, _ = xs.shape
    m = batch * sum(cell.W.shape[1] for cell in cells)  # the gates' math runs on flat rows: the cheapest numpy calls
    kept = steps if history else 1
    cache = BiLstmCache(
        xs, np.zeros((steps + 1, m)), np.zeros((steps + 1 if history else 1, m)), np.empty((kept, 4, m)),
        np.empty((kept, m)), batch * cells[0].W.shape[1],
    )
    hs, cs, tanh_c, gates = cache.hs, cache.cs, cache.tanh_c, cache.gates.reshape(kept, 4 * m)
    pre, ic = np.empty((4, m)), np.empty(m)  # z + b gate-major, and i * candidate
    # Each product is the one a single-direction LSTM step computes, with the
    # same shapes and memory layout, so it rounds exactly as that step's. The
    # inputs are projected per step, not as one (T * B)-row product: at
    # encode's batch of a few hundred paths that product takes the BLAS's
    # threaded path, about 2x slower on a 2-CPU host (310 against 167 us).
    (u0, w0, b0), (u1, w1, b1) = ((cell.U.T, cell.W.T, cell.b.reshape(4, 1, -1)) for cell in cells)
    z0, z1 = (np.empty((batch, 4 * cell.W.shape[1])) for cell in cells)
    z0_by_gate, z1_by_gate = (z.reshape(batch, 4, -1).transpose(1, 0, 2) for z in (z0, z1))
    pre0, pre1 = cache.by_direction(pre)
    h0, h1 = cache.by_direction(hs)
    pre = pre.reshape(4 * m)
    # The row of step t's cell state, gates and tanh(c), and of the cell state it writes.
    rows = [(t, t + 1) for t in range(steps)] if history else [(0, 0)] * steps
    for t, (k, k_next) in enumerate(rows):
        xs[t].dot(u0, out=z0)
        z0 += h0[t].dot(w0)
        np.add(z0_by_gate, b0, out=pre0)
        xs[steps - 1 - t].dot(u1, out=z1)
        z1 += h1[t].dot(w1)
        np.add(z1_by_gate, b1, out=pre1)
        g = gates[k]
        sigmoid(pre[: 3 * m], out=g[: 3 * m])
        np.tanh(pre[3 * m :], out=g[3 * m :])
        c = np.multiply(g[m : 2 * m], cs[k], out=cs[k_next])
        c += np.multiply(g[2 * m : 3 * m], g[3 * m :], out=ic)
        np.multiply(g[:m], np.tanh(c, out=tanh_c[k]), out=hs[t + 1])
    return cache


def bilstm_backward(
    cells: tuple[CellWeights, CellWeights], grads: tuple[CellWeights, CellWeights], cache: BiLstmCache, d_hs: np.ndarray
) -> np.ndarray:
    """Backpropagate d_hs (T, m), the loss gradient on the output states,
    laid out as cache.hs[1:], through a forward pass run with history. Adds
    each cell's weight gradients into grads and returns the input gradient
    (T, B, d)."""
    steps, batch, d = cache.xs.shape
    m = cache.hs.shape[1]
    o, f, i, cand = cache.gates.transpose(1, 0, 2)
    tanh_c, cs = cache.tanh_c, cache.cs
    # Per-step factors that do not depend on the recurrence, for all steps at
    # once: of o from dh, then of f, i and c from dc.
    d_c_from_h = o * (1.0 - tanh_c * tanh_c)
    factors = np.empty((4, steps, m))
    np.multiply(tanh_c * o, 1.0 - o, out=factors[0])
    np.multiply(cs[:-1] * f, 1.0 - f, out=factors[1])
    np.multiply(cand * i, 1.0 - i, out=factors[2])
    np.multiply(i, 1.0 - cand * cand, out=factors[3])

    d_pre = [np.empty((steps, batch, 4 * cell.W.shape[1])) for cell in cells]
    d_gates, dh, dc = np.empty((4, m)), np.zeros(m), np.zeros(m)
    w0, w1 = (cell.W for cell in cells)
    dp0, dp1 = d_pre
    dp0_by_gate, dp1_by_gate = (dp.reshape(steps, batch, 4, -1).transpose(0, 2, 1, 3) for dp in d_pre)
    d_gates0, d_gates1 = cache.by_direction(d_gates)
    dh0, dh1 = cache.by_direction(dh)
    for t in range(steps - 1, -1, -1):
        dh += d_hs[t]
        dc += dh * d_c_from_h[t]
        np.multiply(dh, factors[0, t], out=d_gates[0])
        np.multiply(dc, factors[1:, t], out=d_gates[1:])
        dc *= f[t]
        dp0_by_gate[t] = d_gates0
        dp0[t].dot(w0, out=dh0)
        dp1_by_gate[t] = d_gates1
        dp1[t].dot(w1, out=dh1)

    d_xs = []
    inputs = (cache.xs, cache.xs[::-1])
    for cell, grad, dp, hs, xs in zip(cells, grads, d_pre, cache.by_direction(cache.hs[:-1]), inputs):
        rows = dp.reshape(steps * batch, -1)
        grad.W += rows.T @ hs.reshape(steps * batch, -1)
        grad.U += rows.T @ xs.reshape(steps * batch, d)
        grad.b += rows.sum(axis=0)
        d_xs.append((rows @ cell.U).reshape(steps, batch, d))
    return d_xs[0] + d_xs[1][::-1]


# ---------------------------------------------------------------------------
# GRU weight gradients (the decoder's steps are in model: each step's input
# comes from the attention over the last state)
# ---------------------------------------------------------------------------


def gru_weight_grads(
    grad: CellWeights, d_pre: np.ndarray, xs: np.ndarray, h_prevs: np.ndarray, zrs: np.ndarray
) -> None:
    """Add the weight gradients of n steps, from their stacked pre-activation
    gradients (n, 3g), inputs (n, d), previous states (n, g) and z|r (n, 2g)."""
    g = h_prevs.shape[1]
    grad.W += d_pre.T @ xs
    grad.U[: 2 * g] += d_pre[:, : 2 * g].T @ h_prevs
    grad.U[2 * g :] += d_pre[:, 2 * g :].T @ (zrs[:, g:] * h_prevs)
    grad.b += d_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Per-row -log softmax(logits)[target] for logits (n, V), with max
    subtraction, and its gradient with respect to the logits (softmax minus one-hot)."""
    targets = np.asarray(targets, dtype=np.intp)
    rows = np.arange(logits.shape[0])
    peak = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - peak)
    total = e.sum(axis=1, keepdims=True)
    losses = (np.log(total) + peak)[:, 0] - logits[rows, targets]
    d_logits = e / total
    d_logits[rows, targets] -= 1.0
    return losses, d_logits


def clip_gradients(grad: np.ndarray, max_norm: float = GRAD_CLIP_NORM) -> float:
    """Scale a flat gradient buffer down to a global norm cap, in place, and
    return the pre-clip norm; a non-finite one is left for the caller to refuse."""
    # einsum rather than a BLAS dot: on a long vector the BLAS may wake its
    # worker threads, which costs more here than the sum itself.
    norm = math.sqrt(float(np.einsum("i,i", grad, grad)))
    if max_norm < norm < math.inf:
        grad *= max_norm / norm
    return norm


def sgd_step(param: np.ndarray, grad: np.ndarray, learning_rate: float) -> None:
    """param -= learning_rate * grad, then zero grad for the next batch."""
    param -= np.multiply(grad, learning_rate, out=grad)
    grad.fill(0.0)
