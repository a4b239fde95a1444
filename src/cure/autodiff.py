"""Hand-derived forward and backward passes for the encoder-decoder's cells.

Gates are fused so that one matmul computes all of them. An LSTM stacks its
output, forget, input and candidate gates (o, f, i, c) as the row blocks of
one 4h-row `W` (acting on the previous hidden state), `U` (acting on the
input) and `b`; one step then takes one matmul with each over every
sequence of the batch. The encoder's forward and backward LSTMs run as one
recurrence: each direction's products are those it would compute alone, so
the results are bit-identical to two single-direction runs, and the gates'
elementwise math runs once per step for both. A GRU stacks its update,
reset and candidate gates (z, r, h) the same way, except that here `W` acts
on the input and `U` on the hidden state; the candidate's `U` rows multiply
the reset-gated state, so they run as a second matmul. Each backward pass
reuses the activations its forward pass cached, and adds its weight
gradients into caller-owned arrays, so a batch's gradients accumulate with +=.

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
    """One recurrent cell's fused weights (or their gradients), gate blocks stacked by row."""

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
    direction 0's batch (B, h0), then direction 1's (B, h1)."""

    xs: np.ndarray  # (T, B, d) inputs, in input order
    hs: np.ndarray  # (T + 1, m) hidden states, each direction's in its own step order; hs[0] = 0
    cs: np.ndarray  # (T + 1, m) cell states, cs[0] = 0
    gates: np.ndarray  # (T, 4, m) o, f, i after the sigmoid, candidate after tanh
    tanh_c: np.ndarray  # (T, m)
    cut: int  # B h0, where direction 1's units start

    def by_direction(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each direction's (..., B, h) view of flat rows (..., m)."""
        shape = (*rows.shape[:-1], self.xs.shape[1], -1)
        return rows[..., : self.cut].reshape(shape), rows[..., self.cut :].reshape(shape)


def bilstm_forward(cells: tuple[CellWeights, CellWeights], xs: np.ndarray) -> BiLstmCache:
    """Run a forward-in-time LSTM (cells[0]) and a backward-in-time one
    (cells[1]) over xs (T, B, d) from zero state, one step of both at a
    time. Their hidden states are cache.by_direction(cache.hs[1:])."""
    steps, batch, _ = xs.shape
    m = batch * sum(cell.W.shape[1] for cell in cells)  # the gates' math runs on flat rows: the cheapest numpy calls
    cache = BiLstmCache(
        xs, np.zeros((steps + 1, m)), np.zeros((steps + 1, m)), np.empty((steps, 4, m)), np.empty((steps, m)),
        batch * cells[0].W.shape[1],
    )
    hs, cs, tanh_c, gates = cache.hs, cache.cs, cache.tanh_c, cache.gates.reshape(steps, 4 * m)
    pre, ic = np.empty((4, m)), np.empty(m)  # z + b gate-major, and i * candidate
    # Each product is the one a single-direction LSTM step computes, with the
    # same shapes and memory layout, so it rounds exactly as that step's. The
    # inputs are projected per step, not as one (T * B)-row product: at
    # encode's batch of a few hundred paths that product takes the BLAS's
    # threaded path, about 2x slower on a 2-CPU host (310 against 167 us).
    zs = [np.empty((batch, 4 * cell.W.shape[1])) for cell in cells]
    directions = list(zip(
        [(cell.U.T, cell.W.T, cell.b.reshape(4, 1, -1)) for cell in cells], zs,
        [z.reshape(batch, 4, -1).transpose(1, 0, 2) for z in zs], cache.by_direction(pre), cache.by_direction(hs),
    ))
    pre = pre.reshape(4 * m)
    for t in range(steps):
        for ((u_t, w_t, b), z, z_by_gate, pre_k, h_k), x in zip(directions, (xs[t], xs[steps - 1 - t])):
            x.dot(u_t, out=z)
            z += h_k[t].dot(w_t)
            np.add(z_by_gate, b, out=pre_k)
        g = gates[t]
        sigmoid(pre[: 3 * m], out=g[: 3 * m])
        np.tanh(pre[3 * m :], out=g[3 * m :])
        c = np.multiply(g[m : 2 * m], cs[t], out=cs[t + 1])
        c += np.multiply(g[2 * m : 3 * m], g[3 * m :], out=ic)
        np.multiply(g[:m], np.tanh(c, out=tanh_c[t]), out=hs[t + 1])
    return cache


def bilstm_backward(
    cells: tuple[CellWeights, CellWeights], grads: tuple[CellWeights, CellWeights], cache: BiLstmCache, d_hs: np.ndarray
) -> np.ndarray:
    """Backpropagate d_hs (T, m), the loss gradient on the output states,
    laid out as cache.hs[1:]. Adds each cell's weight gradients into grads
    and returns the input gradient (T, B, d)."""
    steps, batch, d = cache.xs.shape
    m = cache.hs.shape[1]
    o, f, i, cand = cache.gates.transpose(1, 0, 2)
    tanh_c, cs = cache.tanh_c, cache.cs
    # Per-step factors that do not depend on the recurrence, for all steps at
    # once: of o from dh, then of f, i and c from dc.
    d_c_from_h = o * (1.0 - tanh_c * tanh_c)
    factors = np.stack([tanh_c * o * (1.0 - o), cs[:-1] * f * (1.0 - f), cand * i * (1.0 - i), i * (1.0 - cand * cand)])

    d_pre = [np.empty((steps, batch, 4 * cell.W.shape[1])) for cell in cells]
    d_gates, dh, dc = np.empty((4, m)), np.zeros(m), np.zeros(m)
    directions = list(zip(
        cells, d_pre, [dp.reshape(steps, batch, 4, -1).transpose(0, 2, 1, 3) for dp in d_pre],
        cache.by_direction(d_gates), cache.by_direction(dh),
    ))
    for t in range(steps - 1, -1, -1):
        dh += d_hs[t]
        dc += dh * d_c_from_h[t]
        np.multiply(dh, factors[0, t], out=d_gates[0])
        np.multiply(dc, factors[1:, t], out=d_gates[1:])
        dc *= f[t]
        for cell, dp, dp_by_gate, d_gates_k, dh_k in directions:
            dp_by_gate[t] = d_gates_k
            dp[t].dot(cell.W, out=dh_k)

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
# GRU, one step at a time (the decoder computes each step's input from the last state)
# ---------------------------------------------------------------------------


def gru_step(
    p: CellWeights, x: np.ndarray, h_prev: np.ndarray, h: np.ndarray, zr: np.ndarray, cand: np.ndarray
) -> None:
    """New state h = z * h_prev + (1 - z) * tanh(W_h x + U_h (r * h_prev) + b_h),
    written into h, with the activations gru_step_backward needs: z|r into
    zr and the candidate into cand."""
    g = h_prev.shape[0]
    xw = p.W.dot(x)
    xw += p.b
    sigmoid(np.add(xw[: 2 * g], p.U[: 2 * g].dot(h_prev), out=zr), out=zr)
    np.tanh(np.add(xw[2 * g :], p.U[2 * g :].dot(zr[g:] * h_prev), out=cand), out=cand)
    np.multiply(zr[:g], h_prev, out=h)
    h += (1.0 - zr[:g]) * cand


def gru_step_backward(
    p: CellWeights, h_prev: np.ndarray, zr: np.ndarray, cand: np.ndarray, dh: np.ndarray, d_pre: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of one step from dh: writes the pre-activation gradient (3g,
    z|r|h rows) into d_pre, returns the input's and the previous state's.

    The weight gradients follow from the pre-activation gradients of all
    steps at once; see gru_weight_grads.
    """
    g = h_prev.shape[0]
    z, r = zr[:g], zr[g:]
    np.multiply(dh * (1.0 - z), 1.0 - cand * cand, out=d_pre[2 * g :])
    d_rh = p.U[2 * g :].T.dot(d_pre[2 * g :])
    np.multiply(dh * (h_prev - cand) * z, 1.0 - z, out=d_pre[:g])
    np.multiply(d_rh * h_prev * r, 1.0 - r, out=d_pre[g : 2 * g])
    d_h_prev = dh * z + d_rh * r + p.U[: 2 * g].T.dot(d_pre[: 2 * g])
    return p.W.T.dot(d_pre), d_h_prev


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
