"""Hand-derived forward and backward passes for the encoder-decoder's cells.

Gates are fused so that one matmul computes all of them. An LSTM stacks its
output, forget, input and candidate gates (o, f, i, c) as the row blocks of
one 4h-row `W` (acting on the previous hidden state), `U` (acting on the
input) and `b`; one step then takes one matmul with each over every
sequence of the batch. A GRU stacks its update, reset and candidate gates (z, r, h) the same
way, except that here `W` acts on the input and `U` on the hidden state; the
candidate's `U` rows multiply the reset-gated state, so they run as a second
matmul. Each backward pass reuses the activations its forward pass cached,
and adds its weight gradients into caller-owned arrays, so a batch's
gradients accumulate with +=.

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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, as 1/2 + tanh(x/2)/2: no overflow for either sign."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


# ---------------------------------------------------------------------------
# LSTM over a batch of sequences
# ---------------------------------------------------------------------------


@dataclass
class LstmCache:
    """Activations of one forward pass, as its backward pass needs them."""

    xs: np.ndarray  # (T, B, d) inputs
    hs: np.ndarray  # (T + 1, B, h) hidden states, hs[0] = 0
    cs: np.ndarray  # (T + 1, B, h) cell states, cs[0] = 0
    gates: np.ndarray  # (T, B, 4h) o, f, i after the sigmoid, candidate after tanh
    tanh_c: np.ndarray  # (T, B, h)


def lstm_forward(p: CellWeights, xs: np.ndarray) -> tuple[np.ndarray, LstmCache]:
    """Hidden states (T, B, h) of an LSTM run over xs (T, B, d) from zero
    state, and the cache lstm_backward needs."""
    steps, batch, _ = xs.shape
    h = p.W.shape[1]
    cache = LstmCache(
        xs=xs, hs=np.zeros((steps + 1, batch, h)), cs=np.zeros((steps + 1, batch, h)),
        gates=np.empty((steps, batch, 4 * h)), tanh_c=np.empty((steps, batch, h)),
    )
    hs = cache.hs
    c = cache.cs[0]
    # The input projection runs per step, not as one (T * B)-row matmul up
    # front: row counts that large make the BLAS start its worker threads,
    # which cost more than they save at these sizes and keep spinning into
    # whatever the process runs next.
    u_t, w_t = p.U.T, p.W.T
    for t in range(steps):
        z = xs[t] @ u_t + hs[t] @ w_t + p.b
        sig = sigmoid(z[:, : 3 * h])
        cand = np.tanh(z[:, 3 * h :])
        c = sig[:, h : 2 * h] * c + sig[:, 2 * h :] * cand
        tanh_c = np.tanh(c)
        hs[t + 1] = sig[:, :h] * tanh_c
        cache.cs[t + 1] = c
        cache.gates[t, :, : 3 * h] = sig
        cache.gates[t, :, 3 * h :] = cand
        cache.tanh_c[t] = tanh_c
    return hs[1:], cache


def lstm_backward(p: CellWeights, grad: CellWeights, cache: LstmCache, d_hs: np.ndarray) -> np.ndarray:
    """Backpropagate d_hs (T, B, h), the loss gradient on every output state.

    Adds the weight gradients into grad and returns the input gradient (T, B, d).
    """
    steps, batch, h = d_hs.shape
    g = cache.gates
    o, f, i, cand = g[..., :h], g[..., h : 2 * h], g[..., 2 * h : 3 * h], g[..., 3 * h :]
    tanh_c = cache.tanh_c
    # Per-step factors that do not depend on the recurrence, computed for all steps at once.
    d_c_from_h = o * (1.0 - tanh_c * tanh_c)
    d_o_from_h = tanh_c * o * (1.0 - o)
    d_fic_from_c = np.stack(
        [cache.cs[:-1] * f * (1.0 - f), cand * i * (1.0 - i), i * (1.0 - cand * cand)], axis=2
    )  # (T, B, 3, h)

    d_pre = np.empty((steps, batch, 4 * h))
    by_gate = d_pre.reshape(steps, batch, 4, h)
    dh = np.zeros((batch, h))
    dc = np.zeros((batch, h))
    for t in range(steps - 1, -1, -1):
        dh = dh + d_hs[t]
        dc = dc + dh * d_c_from_h[t]
        by_gate[t, :, 0] = dh * d_o_from_h[t]
        by_gate[t, :, 1:] = dc[:, None, :] * d_fic_from_c[t]
        dc = dc * f[t]
        dh = d_pre[t] @ p.W

    flat = d_pre.reshape(steps * batch, 4 * h)
    d = cache.xs.shape[2]
    grad.W += flat.T @ cache.hs[:-1].reshape(steps * batch, h)
    grad.U += flat.T @ cache.xs.reshape(steps * batch, d)
    grad.b += flat.sum(axis=0)
    return (flat @ p.U).reshape(steps, batch, d)


# ---------------------------------------------------------------------------
# GRU, one step at a time (the decoder computes each step's input from the last state)
# ---------------------------------------------------------------------------


def gru_step(p: CellWeights, x: np.ndarray, h_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New state h = z * h_prev + (1 - z) * tanh(W_h x + U_h (r * h_prev) + b_h).

    Returns h and the activations gru_step_backward needs: z|r and the candidate.
    """
    g = h_prev.shape[0]
    xw = p.W @ x + p.b
    zr = sigmoid(xw[: 2 * g] + p.U[: 2 * g] @ h_prev)
    cand = np.tanh(xw[2 * g :] + p.U[2 * g :] @ (zr[g:] * h_prev))
    z = zr[:g]
    return z * h_prev + (1.0 - z) * cand, zr, cand


def gru_step_backward(
    p: CellWeights, h_prev: np.ndarray, zr: np.ndarray, cand: np.ndarray, dh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of one step from dh: pre-activation (3g, z|r|h rows), input, previous state.

    The weight gradients follow from the pre-activation gradients of all
    steps at once; see gru_weight_grads.
    """
    g = h_prev.shape[0]
    z, r = zr[:g], zr[g:]
    d_pre = np.empty(3 * g)
    d_pre[2 * g :] = dh * (1.0 - z) * (1.0 - cand * cand)
    d_rh = p.U[2 * g :].T @ d_pre[2 * g :]
    d_pre[:g] = dh * (h_prev - cand) * z * (1.0 - z)
    d_pre[g : 2 * g] = d_rh * h_prev * r * (1.0 - r)
    d_h_prev = dh * z + d_rh * r + p.U[: 2 * g].T @ d_pre[: 2 * g]
    return d_pre, p.W.T @ d_pre, d_h_prev


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
    param -= learning_rate * grad
    grad[...] = 0.0
