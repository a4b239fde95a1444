"""Shared fixtures and independent oracles used across the test suite.

Every oracle here is written against the definition being tested, not
against the implementation: BFS for tree paths, scalar loops for the
recurrent cells, Decimal arithmetic for label scoring, from-scratch
agglomeration for clustering (in floats, and in 80-digit Decimal for
ties in real arithmetic), and a pair double-loop for the rand index.
The single-direction LSTM passes that the fused bidirectional ones
replaced are kept here as their reference, one run per direction, and so
are the GRU step kernels and the decoder loops built on them, as the
reference for the decoder loops in `model`. The entry points that only
tests call (encoding one path, the loss of one held-out path) live here
too, and so does the string-level padding that `model.paths_to_ids` is
checked against. WRITERS lists every artifact writer, with what it
writes, for the tests of the file contracts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from typing import Sequence

import numpy as np

from cure import artifacts
from cure.autodiff import CellWeights, gru_weight_grads, sigmoid
from cure.corpus import EntitySpan, ParsedSentence, Token
from cure.errors import ValidationError
from cure.metrics import RelationScore
from cure.model import (
    ModelConfig, ModelParams, PathIds, _embed, _path_prediction_loss, encode_blocks, id_table, write_checkpoint,
)
from cure.paths import SspTriple
from cure.vocab import PAD, UNK, Vocab, write_embeddings


def make_reagan_sentence() -> ParsedSentence:
    """The compound-entity example sentence with its dependency parse."""
    toks = [
        ("Ronald", "PROPN", "compound", 1),
        ("Reagan", "PROPN", "nsubj", 2),
        ("served", "VERB", "ROOT", -1),
        ("as", "ADP", "prep", 2),
        ("the", "DET", "det", 6),
        ("40th", "ADJ", "amod", 6),
        ("president", "NOUN", "pobj", 3),
        ("of", "ADP", "prep", 6),
        ("the", "DET", "det", 10),
        ("United", "PROPN", "compound", 10),
        ("States", "PROPN", "pobj", 7),
    ]
    return ParsedSentence(
        id="reagan",
        tokens=tuple(Token(*t) for t in toks),
        subject=EntitySpan(0, 2, "Ronald Reagan"),
        object=EntitySpan(8, 11, "the United States"),
    )


def random_tree_sentence(rng: np.random.Generator, n_tokens: int, sent_id: str = "t") -> ParsedSentence:
    """A random valid dependency tree with two random single-token entities."""
    order = rng.permutation(n_tokens)
    heads = [0] * n_tokens
    heads[order[0]] = -1
    for pos in range(1, n_tokens):
        parent_pos = int(rng.integers(pos))
        heads[order[pos]] = int(order[parent_pos])
    deps = ["ROOT" if heads[i] == -1 else f"dep{int(rng.integers(6))}" for i in range(n_tokens)]
    tokens = tuple(
        Token(text=f"w{i}", pos=f"P{int(rng.integers(4))}", dep=deps[i], head=heads[i])
        for i in range(n_tokens)
    )
    i, j = rng.choice(n_tokens, size=2, replace=False)
    i, j = int(i), int(j)
    return ParsedSentence(
        id=sent_id,
        tokens=tokens,
        subject=EntitySpan(i, i + 1, f"w{i}"),
        object=EntitySpan(j, j + 1, f"w{j}"),
    )


def bfs_tree_path(sentence: ParsedSentence, src: int, dst: int) -> list[int]:
    """Shortest path between tokens on the undirected tree, by plain BFS."""
    n = len(sentence.tokens)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, tok in enumerate(sentence.tokens):
        if tok.head != -1:
            adjacency[i].append(tok.head)
            adjacency[tok.head].append(i)
    parent = {src: None}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            break
        for nxt in adjacency[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# Scalar recurrent-cell oracles
# ---------------------------------------------------------------------------


def _sig(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def _scalar_gate(W, U, b, h, x, act) -> list[float]:
    out = []
    for r in range(len(b)):
        s = float(b[r])
        for k in range(len(h)):
            s += float(W[r][k]) * h[k]
        for k in range(len(x)):
            s += float(U[r][k]) * x[k]
        out.append(act(s))
    return out


def gate_dict(cell: CellWeights, gates: Sequence[str]) -> dict:
    """A cell's fused rows as the per-gate nested lists the scalar oracles take."""
    size = cell.b.shape[0] // len(gates)
    out = {}
    for k, gate in enumerate(gates):
        rows = slice(k * size, (k + 1) * size)
        out[f"W_{gate}"] = cell.W[rows].tolist()
        out[f"U_{gate}"] = cell.U[rows].tolist()
        out[f"b_{gate}"] = cell.b[rows].tolist()
    return out


def scalar_lstm_step(x, h, c, p: dict) -> tuple[list[float], list[float]]:
    """Element-by-element LSTM step; p maps gate names to nested lists."""
    o = _scalar_gate(p["W_o"], p["U_o"], p["b_o"], h, x, _sig)
    f = _scalar_gate(p["W_f"], p["U_f"], p["b_f"], h, x, _sig)
    i = _scalar_gate(p["W_i"], p["U_i"], p["b_i"], h, x, _sig)
    c_hat = _scalar_gate(p["W_c"], p["U_c"], p["b_c"], h, x, math.tanh)
    c_new = [f[r] * c[r] + i[r] * c_hat[r] for r in range(len(c))]
    h_new = [o[r] * math.tanh(c_new[r]) for r in range(len(c))]
    return h_new, c_new


def scalar_gru_step(x, h, p: dict) -> list[float]:
    """Element-by-element GRU step; W_* act on x, U_* on the (reset) state."""

    def gate(W, U, b, state, act):
        out = []
        for row in range(len(b)):
            s = float(b[row])
            for k in range(len(x)):
                s += float(W[row][k]) * x[k]
            for k in range(len(state)):
                s += float(U[row][k]) * state[k]
            out.append(act(s))
        return out

    z = gate(p["W_z"], p["U_z"], p["b_z"], h, _sig)
    r = gate(p["W_r"], p["U_r"], p["b_r"], h, _sig)
    reset_h = [r[k] * h[k] for k in range(len(h))]
    candidate = gate(p["W_h"], p["U_h"], p["b_h"], reset_h, math.tanh)
    return [z[k] * h[k] + (1.0 - z[k]) * candidate[k] for k in range(len(h))]


# ---------------------------------------------------------------------------
# Single-direction LSTM passes: the reference for the fused bidirectional ones
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


def reference_encoder(
    params: ModelParams, paths: Sequence[PathIds], d_blocks: np.ndarray, grads: ModelParams
) -> np.ndarray:
    """What encode_blocks gives and encoder_backward adds into grads, by one
    single-direction LSTM run per direction (the backward one over the
    time-reversed inputs); returns the blocks (len(paths), n_l, n_h + n_h2)."""
    cfg = params.cfg
    ids = tuple(np.array([getattr(p, key) for p in paths], dtype=np.intp).T for key in PathIds._fields[:3])
    xs = _embed(params, ids)
    forward, fwd_cache = lstm_forward(params.enc_fwd, xs)
    backward, bwd_cache = lstm_forward(params.enc_bwd, xs[::-1])
    d_states = d_blocks.transpose(1, 0, 2)
    d_xs = lstm_backward(params.enc_fwd, grads.enc_fwd, fwd_cache, d_states[..., : cfg.n_h])
    d_xs += lstm_backward(params.enc_bwd, grads.enc_bwd, bwd_cache, d_states[::-1, :, cfg.n_h :])[::-1]
    for table, tag_ids, cols in zip(
        (grads.word_emb, grads.dep_emb, grads.pos_emb), ids, np.split(d_xs, [cfg.d_w, cfg.d_w + cfg.d_d], axis=2)
    ):
        np.add.at(table, tag_ids, cols)
    return np.concatenate([forward, backward[::-1]], axis=2).transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# GRU step kernels and the decoder loops built on them: the reference for
# model.decode_path and model.decoder_backward
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
    steps at once (autodiff.gru_weight_grads)."""
    g = h_prev.shape[0]
    z, r = zr[:g], zr[g:]
    np.multiply(dh * (1.0 - z), 1.0 - cand * cand, out=d_pre[2 * g :])
    d_rh = p.U[2 * g :].T.dot(d_pre[2 * g :])
    np.multiply(dh * (h_prev - cand) * z, 1.0 - z, out=d_pre[:g])
    np.multiply(d_rh * h_prev * r, 1.0 - r, out=d_pre[g : 2 * g])
    d_h_prev = dh * z + d_rh * r + p.U[: 2 * g].T.dot(d_pre[: 2 * g])
    return p.W.T.dot(d_pre), d_h_prev


def reference_decoder(
    params: ModelParams, blocks: np.ndarray, n: int, d_logits: np.ndarray, grads: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """The logits of decoding n steps from blocks (n_l, n_h + n_h2), and the
    blocks' gradient from d_logits (n, n_words), one gru_step and one
    gru_step_backward call per step; adds the decoder's weight gradients
    into grads."""
    cfg = params.cfg
    g, bd = cfg.n_g, cfg.block_dim
    weights, joined = np.empty((n, cfg.n_l)), np.zeros((n, bd + g))
    contexts, hs, zrs, cands = np.empty((n, g)), np.zeros((n + 1, g)), np.empty((n, 2 * g)), np.empty((n, g))
    scores = np.empty(cfg.n_l)
    for t in range(n):
        np.add(params.attn_w.dot(hs[t]), params.attn_b, out=scores)
        scores -= scores.max()
        e = np.exp(scores, out=weights[t])
        e /= e.sum()
        e.dot(blocks, out=joined[t, :bd])
        if t:
            joined[t, bd:] = contexts[t - 1]
        params.ctx_w.dot(joined[t], out=contexts[t])
        gru_step(params.dec, contexts[t], hs[t], hs[t + 1], zrs[t], cands[t])
    logits = hs[1:] @ params.out_w.T + params.out_b

    grads.out_w += d_logits.T @ hs[1:]
    grads.out_b += d_logits.sum(axis=0)
    d_h_out = d_logits @ params.out_w
    d_gru, d_ctx, d_joined = np.empty((n, 3 * g)), np.empty((n, g)), np.empty((n, bd + g))
    d_focus, d_scores = d_joined[:, :bd], np.empty((n, cfg.n_l))
    dh, d_ctx_next = np.zeros(g), np.zeros(g)
    for t in range(n - 1, -1, -1):
        dh += d_h_out[t]
        d_x, dh = gru_step_backward(params.dec, hs[t], zrs[t], cands[t], dh, d_gru[t])
        np.add(d_x, d_ctx_next, out=d_ctx[t]).dot(params.ctx_w, out=d_joined[t])
        d_ctx_next = d_joined[t, bd:]
        a = weights[t]
        d_a = blocks.dot(d_focus[t])
        d_a -= a.dot(d_a)
        dh += np.multiply(a, d_a, out=d_scores[t]).dot(params.attn_w)
    gru_weight_grads(grads.dec, d_gru, contexts, hs[:-1], zrs)
    grads.ctx_w += d_ctx.T @ joined
    grads.attn_w += d_scores.T @ hs[:-1]
    grads.attn_b += d_scores.sum(axis=0)
    return logits, weights.T @ d_focus


# ---------------------------------------------------------------------------
# Padding a path before vocabulary lookup (the reference for paths_to_ids)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaddedPath:
    """A path brought to fixed length, plus its original length."""

    words: tuple[str, ...]
    deps: tuple[str, ...]
    poss: tuple[str, ...]
    true_length: int


def pad_or_truncate(path: SspTriple, n_l: int) -> PaddedPath:
    """Force a path to length n_l: pad at the end, or truncate keeping the
    first n_l-1 elements plus the final element so both endpoints survive."""
    if n_l < 2:
        raise ValidationError("n_l must be at least 2")
    k = len(path)
    if k > n_l:
        keep = list(range(n_l - 1)) + [k - 1]
        return PaddedPath(
            words=tuple(path.words[i] for i in keep),
            deps=tuple(path.deps[i] for i in keep),
            poss=tuple(path.poss[i] for i in keep),
            true_length=n_l,
        )
    fill = n_l - k
    return PaddedPath(
        words=path.words + (PAD,) * fill,
        deps=path.deps + (PAD,) * fill,
        poss=path.poss + (PAD,) * fill,
        true_length=k,
    )


# ---------------------------------------------------------------------------
# Single-path encoding and the held-out-path loss
# ---------------------------------------------------------------------------


def encode_path(params: ModelParams, path: PathIds) -> np.ndarray:
    """Fixed-size encoding of one path: all position blocks concatenated."""
    return encode_blocks(params, id_table([path]))[0].reshape(-1)


def training_loss(
    params: ModelParams, group: Sequence[PathIds], held_out: int, grads: ModelParams | None = None
) -> float:
    """Cross entropy of predicting path `held_out` from the group's other
    paths, averaged over the target's unpadded length. With grads, the loss
    gradient is added into grads."""
    if len(group) < 2:
        raise ValidationError("training needs a group with at least 2 paths")
    if not 0 <= held_out < len(group):
        raise ValidationError(f"held-out index {held_out} out of range")
    inputs = id_table([p for i, p in enumerate(group) if i != held_out])
    return _path_prediction_loss(params, inputs, group[held_out], grads)


# ---------------------------------------------------------------------------
# Extended-precision label-scoring oracle
# ---------------------------------------------------------------------------


def decimal_wvs_ranking(counts: dict[str, int], vectors: dict[str, list[float]], precision: int = 50) -> list[str]:
    """Rank candidate words with Decimal arithmetic throughout."""
    getcontext().prec = precision

    def dvec(word):
        return [Decimal(repr(float(v))) for v in vectors[word]]

    def dcos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = sum(a * a for a in u).sqrt()
        nv = sum(b * b for b in v).sqrt()
        return dot / (nu * nv)

    words = sorted(w for w in counts if w in vectors)
    assert words, "oracle needs at least one word with a vector"
    if len(words) == 1:
        return words

    raw = {}
    for w in words:
        total = sum(Decimal(1) - dcos(dvec(w), dvec(o)) for o in words if o != w)
        raw[w] = Decimal(counts[w]) * total
    lo, hi = min(raw.values()), max(raw.values())
    if hi == lo:
        weights = {w: Decimal(1) for w in words}
    else:
        weights = {w: (raw[w] - lo) / (hi - lo) for w in words}

    dim = len(next(iter(vectors.values())))
    summed = [Decimal(0)] * dim
    for w in words:
        for k, v in enumerate(dvec(w)):
            summed[k] += weights[w] * v

    scored = [(w, dcos(dvec(w), summed)) for w in words]
    scored.sort(key=lambda ws: (-ws[1], ws[0]))
    return [w for w, _ in scored]


# ---------------------------------------------------------------------------
# Clustering and rand-index oracles
# ---------------------------------------------------------------------------


def brute_force_agglomeration(points: list[list[float]]) -> list[tuple[int, int]]:
    """From-scratch average-linkage agglomeration; returns the merge id pairs."""

    def dist(a: list[float], b: list[float]) -> float:
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    n = len(points)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                pair_distances = [dist(points[i], points[j]) for i in clusters[a] for j in clusters[b]]
                d = math.fsum(pair_distances) / len(pair_distances)
                key = (d, a, b)
                if best is None or key < best:
                    best = key
        d, a, b = best
        merges.append((a, b))
        clusters[n + step] = sorted(clusters.pop(a) + clusters.pop(b))
    return merges


def exact_agglomeration(points: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """brute_force_agglomeration for ties in real arithmetic: each distance is
    the 80-digit square root of its exact square, each mean an 80-digit sum
    over its count, and merges compare by (mean quantized to 1e-60, a, b), so
    means that are equal in real arithmetic, such as (1 + sqrt 2)/2 reached
    through different point pairs, tie and the lowest pair wins. (In
    Decimal's default 28 digits the sums split such ties.)"""
    n = len(points)
    quantum = Decimal("1e-60")
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []
    with localcontext() as ctx:
        ctx.prec = 80
        dist = [[sum((Decimal(x) - Decimal(y)) ** 2 for x, y in zip(p, q)).sqrt() for q in points] for p in points]
        for step in range(n - 1):
            ids = sorted(clusters)
            _, a, b = min(
                ((sum(dist[i][j] for i in clusters[a] for j in clusters[b]) / (len(clusters[a]) * len(clusters[b]))
                  ).quantize(quantum), a, b)
                for k, a in enumerate(ids) for b in ids[k + 1 :]
            )
            merges.append((a, b))
            clusters[n + step] = sorted(clusters.pop(a) + clusters.pop(b))
    return merges


def brute_force_rand_index(predicted: dict, gold: dict) -> float:
    items = sorted(predicted)
    agree = 0
    total = 0
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            total += 1
            together_pred = predicted[a] == predicted[b]
            together_gold = gold[a] == gold[b]
            if together_pred == together_gold:
                agree += 1
    return agree / total


# ---------------------------------------------------------------------------
# Interrupted writes
# ---------------------------------------------------------------------------


class WriteFailed(Exception):
    """Raised by the writes that fail_writes_halfway puts in place."""


def fail_writes_halfway(monkeypatch) -> None:
    """Every file opened for writing writes half of the text it is given,
    then raises WriteFailed, as a full disk or a kill would leave it."""
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                raise WriteFailed("disk full")

            fh.write = write
        return fh

    monkeypatch.setattr("builtins.open", failing_open)


_PATH = SspTriple(("founded", "by"), ("nsubj", "prep"), ("VBN", "IN"))
_ONES = np.ones(2)
_RNG = np.random.default_rng(1)
_TINY = ModelConfig(n_h=1, n_h2=1, n_g=1, n_l=2, d_w=1, d_d=1, d_p=1)
_VOCABS = (Vocab((PAD, UNK, "w")), Vocab((PAD, UNK)), Vocab((PAD, UNK)))


# Every write_* function of cure.artifacts, cure.vocab and cure.model: its
# file name, and two argument tuples (after the path) that give the file
# different bytes. Each row is held to the file contracts: a write that dies
# halfway leaves the previous file, and no writer hashes what it writes.
WRITERS = {
    artifacts.write_corpus: ("corpus.jsonl", ([make_reagan_sentence()],), ([make_reagan_sentence()] * 2,)),
    artifacts.write_paths: ("paths.jsonl", ([(("a", "b"), _PATH)],), ([(("a", "b"), _PATH), (("c", "d"), _PATH)],)),
    artifacts.write_vectors: (  # two pairs share one vector object, as encode writes them
        "vectors.jsonl", ({("a", "b"): _ONES},), ({("a", "b"): _ONES, ("c", "d"): np.full(2, 1 / 7), ("e", "f"): _ONES},),
    ),
    artifacts.write_clusters: ("clusters.jsonl", ({("a", "b"): 0},), ({("a", "b"): 0, ("c", "d"): 1},)),
    artifacts.write_centroids: ("centroids.jsonl", ({0: np.ones(2)},), ({0: np.ones(2), 1: np.zeros(2)},)),
    artifacts.write_labels: ("labels.jsonl", ({0: [("founder", 0.5)]},), ({0: [("born", 0.25)], 1: []},)),
    artifacts.write_gold: ("gold.jsonl", ({("a", "b"): ["founder"]},), ({("a", "b"): ["founder", "born"]},)),
    artifacts.write_scores: ("scores.csv", ([], 1.0), ([RelationScore("founder", 1.0, 0.5, 2 / 3)], 0.5)),
    artifacts.write_loss_log: ("loss_log.csv", ([0.5],), ([0.5, 0.25],)),
    artifacts.write_manifest: ("manifest.json", ({"seed": 1, "stages": []},), ({"seed": 2, "stages": []},)),
    write_embeddings: ("embeddings.txt", ({"w": np.ones(2)},), ({"w": np.ones(2), "v": np.zeros(2)},)),
    write_checkpoint: ("model.ckpt", (ModelParams(_TINY, 3, 2, 2, None), _VOCABS), (ModelParams(_TINY, 3, 2, 2, _RNG), _VOCABS)),
}


# ---------------------------------------------------------------------------
# Gradient comparison
# ---------------------------------------------------------------------------


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def tensor_rel_error(got: np.ndarray, expected: np.ndarray) -> float:
    """Largest entry-wise difference relative to the expected tensor's largest entry."""
    scale = float(np.max(np.abs(expected)))
    diff = float(np.max(np.abs(got - expected)))
    return diff / scale if scale > 0 else diff
