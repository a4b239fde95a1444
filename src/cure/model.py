"""Encoder-decoder relation extractor.

Encoding: each path position embeds its word, dependency tag, and POS tag,
the concatenation feeds a forward and a backward LSTM, and the two hidden
states per position are concatenated. A path's encoding is the
concatenation of all position states; a pair's relation vector is the
elementwise mean of its paths' encodings, so it does not grow with the
pair's sentence count, while training decodes from the sum of its input
paths' encodings.

Decoding: at every step, attention scores over the per-position blocks of
the relation vector are computed from the previous GRU state; the
softmax-weighted block sum, concatenated with the previous step's context,
is projected to the GRU input. Word logits come from a linear layer on the
GRU state. No ground-truth word is fed back in.

Training predicts one held-out path of a pair from the pair's remaining
paths, with cross entropy averaged over the target's unpadded length. The
forward and backward passes are written out by hand (see autodiff): all
input paths of an example run through the encoder as one batch, taken by
index from its pair's id table (built once, before the epochs), with both
LSTM directions stepped together, and the decoder runs only the target's
unpadded steps, since later steps never reach the loss, writing each step
into preallocated rows. Each step loop holds only the calls that depend on
the previous step, yet computes every product and elementwise product a
single step would, so results are bit-identical to one GRU kernel call per
step (tests/helpers.py). Encoding keeps no forward history beyond the
hidden states.

Also here: the config, each integer key bounded below beside its default,
and the checkpoint file, which holds the config, the vocabularies and the
parameters, and is written and read only by this module, its parameters
straight from and into ModelParams.flat.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import parse_line, string_array
from .errors import NumericError, ValidationError, reading, write_atomic
from .paths import SspTriple
from .vocab import PAD_ID, Vocab


def integer_key(default: int, least: int = 1):
    """An integer config key: its default and the least value it may take."""
    return field(default=default, metadata={"least": least})


@dataclass
class ModelConfig:
    """Model and training keys. A dataclass: each integer key's least value is field metadata."""

    n_h: int = integer_key(32)  # forward LSTM hidden size
    n_h2: int = integer_key(32)  # backward LSTM hidden size
    n_g: int = integer_key(64)  # decoder GRU hidden (and input) size
    n_l: int = integer_key(10, least=2)  # fixed path length; a truncated path keeps both endpoints
    d_w: int = integer_key(50)  # word embedding dim
    d_d: int = integer_key(16)  # dependency-tag embedding dim
    d_p: int = integer_key(16)  # POS-tag embedding dim
    max_input_paths: int = integer_key(8)
    learning_rate: float = 0.05
    epochs: int = integer_key(10, least=0)
    batch_size: int = integer_key(8)
    seed: int = integer_key(13, least=0)

    def __post_init__(self) -> None:
        for key in fields(self):
            if "least" in key.metadata:
                value, least = getattr(self, key.name), key.metadata["least"]
                if type(value) is not int:
                    raise ValidationError(f"config {key.name} must be an integer, got {reprlib.repr(value)}")
                if value < least:
                    raise ValidationError(f"config {key.name} must be at least {least}, got {reprlib.repr(value)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(f"config learning_rate must be finite and positive, got {self.learning_rate}")
        # Before any array is sized from these keys: numpy cannot index past intp.
        count = sum(math.prod(shape) for shape in parameter_shapes(self, 0, 0, 0).values())
        if 8 * count > np.iinfo(np.intp).max:
            raise ValidationError(f"config needs {reprlib.repr(count)} parameters besides the vocabularies, "
                                  "more than numpy can allocate")

    @property
    def block_dim(self) -> int:
        return self.n_h + self.n_h2


class PathIds(NamedTuple):
    """A padded path resolved to vocabulary ids (an immutable record, see corpus); encode keys its dicts by these."""

    word_ids: tuple[int, ...]
    dep_ids: tuple[int, ...]
    pos_ids: tuple[int, ...]
    true_length: int


def parameter_shapes(cfg: ModelConfig, n_words: int, n_deps: int, n_pos: int) -> dict[str, tuple[int, ...]]:
    """Every trainable tensor's shape, in the order the tensors lie in
    ModelParams.flat (and in a checkpoint's parameter buffer)."""
    d_x = cfg.d_w + cfg.d_d + cfg.d_p
    return {
        "word_emb": (n_words, cfg.d_w),
        "dep_emb": (n_deps, cfg.d_d),
        "pos_emb": (n_pos, cfg.d_p),
        "enc_fwd.W": (4 * cfg.n_h, cfg.n_h), "enc_fwd.U": (4 * cfg.n_h, d_x), "enc_fwd.b": (4 * cfg.n_h,),
        "enc_bwd.W": (4 * cfg.n_h2, cfg.n_h2), "enc_bwd.U": (4 * cfg.n_h2, d_x), "enc_bwd.b": (4 * cfg.n_h2,),
        "attn_w": (cfg.n_l, cfg.n_g),
        "attn_b": (cfg.n_l,),
        "ctx_w": (cfg.n_g, cfg.block_dim + cfg.n_g),
        "dec.W": (3 * cfg.n_g, cfg.n_g), "dec.U": (3 * cfg.n_g, cfg.n_g), "dec.b": (3 * cfg.n_g,),
        "out_w": (n_words, cfg.n_g),
        "out_b": (n_words,),
    }


class ModelParams:
    """All trainable tensors: embedding tables, both encoder LSTMs, the
    attention maps, the decoder GRU, and the output projection.

    The tensors are views into one flat buffer, `flat`, so that gradient
    clipping and the SGD step are single vector operations on a parameter
    set and its same-shaped gradient set. Recurrent cells keep their gates
    fused; `arrays()` gives every tensor under its per-gate name.
    """

    def __init__(self, cfg: ModelConfig, n_words: int, n_deps: int, n_pos: int, rng: np.random.Generator | None):
        """Randomly initialized from rng; all zeros when rng is None."""
        self.cfg = cfg
        self.n_words, self.n_deps, self.n_pos = n_words, n_deps, n_pos
        shapes = parameter_shapes(cfg, n_words, n_deps, n_pos)
        self.flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
        views = {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            views[name] = self.flat[offset : offset + size].reshape(shape)
            offset += size
        self.word_emb, self.dep_emb, self.pos_emb = views["word_emb"], views["dep_emb"], views["pos_emb"]
        self.enc_fwd = ad.CellWeights(views["enc_fwd.W"], views["enc_fwd.U"], views["enc_fwd.b"])
        self.enc_bwd = ad.CellWeights(views["enc_bwd.W"], views["enc_bwd.U"], views["enc_bwd.b"])
        self.attn_w, self.attn_b, self.ctx_w = views["attn_w"], views["attn_b"], views["ctx_w"]
        self.dec = ad.CellWeights(views["dec.W"], views["dec.U"], views["dec.b"])
        self.out_w, self.out_b = views["out_w"], views["out_b"]
        if rng is not None:
            # Drawn tensor by tensor in arrays() order: embeddings uniform in
            # +-0.1, weight matrices fan-scaled uniform per gate, biases zero.
            for name, arr in self.arrays().items():
                if name.endswith("_emb"):
                    arr[...] = rng.uniform(-0.1, 0.1, size=arr.shape)
                elif arr.ndim == 2:
                    bound = math.sqrt(6.0 / (arr.shape[0] + arr.shape[1]))
                    arr[...] = rng.uniform(-bound, bound, size=arr.shape)

    def zeros_like(self) -> "ModelParams":
        """A same-shaped all-zero set, used to accumulate gradients."""
        return ModelParams(self.cfg, self.n_words, self.n_deps, self.n_pos, None)

    def arrays(self) -> dict[str, np.ndarray]:
        """Every tensor, fused gates split into per-gate views under per-gate names."""
        out = {"word_emb": self.word_emb, "dep_emb": self.dep_emb, "pos_emb": self.pos_emb}
        out.update(_gate_views("enc_fwd", self.enc_fwd, ad.LSTM_GATES))
        out.update(_gate_views("enc_bwd", self.enc_bwd, ad.LSTM_GATES))
        out.update(attn_w=self.attn_w, attn_b=self.attn_b, ctx_w=self.ctx_w)
        out.update(_gate_views("dec", self.dec, ad.GRU_GATES))
        out.update(out_w=self.out_w, out_b=self.out_b)
        return out


def _gate_views(prefix: str, cell: ad.CellWeights, gates: Sequence[str]) -> dict[str, np.ndarray]:
    size = cell.b.shape[0] // len(gates)
    out = {}
    for k, gate in enumerate(gates):
        rows = slice(k * size, (k + 1) * size)
        out[f"{prefix}.W_{gate}"] = cell.W[rows]
        out[f"{prefix}.U_{gate}"] = cell.U[rows]
        out[f"{prefix}.b_{gate}"] = cell.b[rows]
    return out


# ---------------------------------------------------------------------------
# Checkpoint file
# ---------------------------------------------------------------------------

CHECKPOINT_HEADER = "CURE-MODEL v3"
_VOCAB_KEYS = ("words", "deps", "poss")
_TENSOR_DTYPE = np.dtype("<f8")  # the parameters' byte order in the file, on any host


def write_checkpoint(path: str | Path, params: ModelParams, vocabs: tuple[Vocab, Vocab, Vocab]) -> None:
    """Checkpoint file: header line, the model config and the word,
    dependency and POS vocabularies as one JSON line, then params.flat as
    little-endian float64, written from params.flat's own buffer (a
    big-endian host writes a swapped copy). The file is replaced whole or
    not at all."""
    config = {key.name: getattr(params.cfg, key.name) for key in fields(ModelConfig)}
    meta = {"config": config, "vocab": {key: list(v.symbols) for key, v in zip(_VOCAB_KEYS, vocabs)}}
    head = f"{CHECKPOINT_HEADER}\n{json.dumps(meta, allow_nan=False)}\n".encode("utf-8")
    write_atomic(path, (head, np.asarray(params.flat, dtype=_TENSOR_DTYPE)))


def read_checkpoint(path: str | Path) -> tuple[ModelParams, tuple[Vocab, Vocab, Vocab]]:
    """The parameters and vocabularies of a checkpoint, the parameters read
    straight into the new ModelParams.flat. Anything malformed is a
    ValidationError naming the file (`<file>:2` for the metadata line); a
    non-finite parameter is a NumericError naming the file and the tensor."""

    def parse(meta: dict) -> tuple[ModelConfig, tuple[Vocab, Vocab, Vocab]]:
        return ModelConfig(**meta["config"]), tuple(Vocab(string_array(meta["vocab"], key)) for key in _VOCAB_KEYS)

    with reading(path, "checkpoint", "rb") as fh:
        header = fh.readline(len(CHECKPOINT_HEADER) + 1).decode("utf-8").rstrip("\n")
        if header != CHECKPOINT_HEADER:
            raise ValidationError(f"{path}: bad checkpoint header {reprlib.repr(header)}, expected {CHECKPOINT_HEADER!r}")
        cfg, vocabs = parse_line(fh.readline().decode("utf-8"), f"{path}:2", "checkpoint metadata", parse)
        sizes = [len(vocab) for vocab in vocabs]
        # Compared before anything is allocated, so a config that claims huge
        # tensors is refused instead of exhausting memory.
        expected = 8 * sum(math.prod(shape) for shape in parameter_shapes(cfg, *sizes).values())
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != expected:
            raise ValidationError(
                f"{path}: config and vocabularies need {expected // 8} parameters ({expected} bytes), "
                f"the file holds {held} tensor bytes"
            )
        params = ModelParams(cfg, *sizes, None)
        if fh.readinto(params.flat) != expected or fh.read(1):
            raise ValidationError(f"{path}: the file changed while it was read")
    if params.flat.dtype != _TENSOR_DTYPE:  # a big-endian host read the file's little-endian bytes
        params.flat.byteswap(inplace=True)
    # Checked here rather than on the outputs: an infinite weight can saturate
    # a gate to exactly 0 or 1 and still give finite vectors, and encoding
    # never reads the decoder's weights.
    _require_finite(params, str(path))
    return params, vocabs


def _require_finite(params: ModelParams, where: str) -> None:
    """A NumericError naming where and the first tensor that holds a non-finite value, if one does."""
    if not np.isfinite(params.flat).all():
        name = next(name for name, arr in params.arrays().items() if not np.isfinite(arr).all())
        raise NumericError(f"{where}: parameter {name!r} holds a non-finite value")


def paths_to_ids(paths: Sequence[SspTriple], vocabs: tuple[Vocab, Vocab, Vocab], n_l: int) -> list[PathIds]:
    """The ids of paths, one pair's paths as group_pairs gives them, each
    brought to length n_l: padded at the end with PAD_ID, or truncated to
    its first n_l - 1 tokens plus its last, so that both endpoints survive."""
    word_vocab, dep_vocab, pos_vocab = vocabs
    return [
        PathIds(
            _fit(word_vocab.ids(path.words), n_l),
            _fit(dep_vocab.ids(path.deps), n_l),
            _fit(pos_vocab.ids(path.poss), n_l),
            min(len(path.words), n_l),
        )
        for path in paths
    ]


def _fit(ids: tuple[int, ...], n_l: int) -> tuple[int, ...]:
    if len(ids) > n_l:
        return ids[: n_l - 1] + ids[-1:]
    return ids + (PAD_ID,) * (n_l - len(ids))


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def id_table(paths: Sequence[PathIds]) -> np.ndarray:
    """Word, dependency and POS ids of paths, (3, len(paths), n_l): what
    encode_blocks takes. A selection of its paths, in any order, is
    table.take(index, axis=1)."""
    return np.array(
        [[p.word_ids for p in paths], [p.dep_ids for p in paths], [p.pos_ids for p in paths]], dtype=np.intp
    )


def _embed(params: ModelParams, ids: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    words, deps, poss = ids
    return np.concatenate([params.word_emb[words], params.dep_emb[deps], params.pos_emb[poss]], axis=2)


def encode_blocks(params: ModelParams, table: np.ndarray, history: bool = True) -> tuple[np.ndarray, tuple]:
    """Per-position concatenated forward/backward LSTM states of every path
    of an id_table, (len(paths), n_l, n_h + n_h2), all paths run as one batch
    through both directions at once, and what encoder_backward needs: the
    word, dependency and POS ids, each (n_l, len(paths)), and the LSTM
    cache, which keeps the whole forward history only when history is True."""
    ids = tuple(table.transpose(0, 2, 1))
    lstm = ad.bilstm_forward((params.enc_fwd, params.enc_bwd), _embed(params, ids), history)
    forward, backward = lstm.by_direction(lstm.hs[1:])
    blocks = np.concatenate([forward, backward[::-1]], axis=2).transpose(1, 0, 2)
    return blocks, (ids, lstm)


def encoder_backward(params: ModelParams, grads: ModelParams, cache: tuple, d_summed: np.ndarray) -> None:
    """Backpropagate d_summed (n_l, n_h + n_h2), the gradient on the sum of
    an encode_blocks run's blocks over its paths (so on each path's blocks),
    adding the LSTM and embedding gradients into grads."""
    cfg = params.cfg
    (words, deps, poss), lstm = cache
    d_hs = np.empty(lstm.tanh_c.shape)  # laid out as the LSTM states
    forward, backward = lstm.by_direction(d_hs)
    forward[...] = d_summed[:, None, : cfg.n_h]  # broadcast over the paths
    backward[...] = d_summed[::-1, None, cfg.n_h :]
    d_xs = ad.bilstm_backward((params.enc_fwd, params.enc_bwd), (grads.enc_fwd, grads.enc_bwd), lstm, d_hs)
    np.add.at(grads.word_emb, words, d_xs[..., : cfg.d_w])
    np.add.at(grads.dep_emb, deps, d_xs[..., cfg.d_w : cfg.d_w + cfg.d_d])
    np.add.at(grads.pos_emb, poss, d_xs[..., cfg.d_w + cfg.d_d :])


def encode_distinct(params: ModelParams, paths: Sequence[PathIds]) -> dict[PathIds, np.ndarray]:
    """The encoding of each distinct path among paths, all run as one batch
    that keeps no forward history.

    A row of a batched matmul can round differently with the batch's size,
    so encoding every path of a stage in one call is what makes identical
    paths encode to identical vectors whatever pair they belong to.
    """
    distinct = list(dict.fromkeys(paths))
    if not distinct:
        return {}
    blocks = encode_blocks(params, id_table(distinct), history=False)[0]
    return dict(zip(distinct, blocks.reshape(len(distinct), -1)))


def infer_relation_vector(paths: Sequence[PathIds], encodings: Mapping[PathIds, np.ndarray]) -> np.ndarray:
    """Relation vector of a pair: the mean of all its paths' encodings
    (nothing held out), summed in path order (see encode_distinct) and
    divided once by their count, so that it does not grow with the pair's
    sentence count."""
    out = encodings[paths[0]].copy()  # an encoding is a view that other pairs share
    for p in paths[1:]:
        out += encodings[p]
    out /= len(paths)
    return out


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


@dataclass
class DecoderPass:
    """Logits of a decoder run, and the activations its backward pass needs."""

    blocks: np.ndarray  # (n_l, block_dim) attended blocks
    weights: np.ndarray  # (n, n_l) attention weights per step
    joined: np.ndarray  # (n, block_dim + n_g) attended block sum, then the previous context
    contexts: np.ndarray  # (n, n_g) GRU inputs
    hs: np.ndarray  # (n + 1, n_g) GRU states, hs[0] = 0
    zrs: np.ndarray  # (n, 2 n_g) update and reset gates
    cands: np.ndarray  # (n, n_g) candidate states
    logits: np.ndarray  # (n, n_words)


def decode_path(params: ModelParams, blocks: np.ndarray, n: int) -> DecoderPass:
    """Word logits for the first n steps, attending over the relation-vector
    blocks (n_l, n_h + n_h2). Each step's input depends on the last state,
    so the GRU steps one at a time, on weight slices and scratch rows bound
    before the loop: z|r = sigmoid(W_zr x + b_zr + U_zr h_prev), candidate =
    tanh(W_h x + b_h + U_h (r * h_prev)), h = z * h_prev + (1 - z) * candidate."""
    cfg = params.cfg
    g, bd = cfg.n_g, cfg.block_dim
    weights = np.empty((n, cfg.n_l))
    joined = np.zeros((n, bd + g))
    contexts = np.empty((n, g))
    hs = np.zeros((n + 1, g))
    zrs = np.empty((n, 2 * g))
    cands = np.empty((n, g))
    scores, xw, reset, blend = np.empty(cfg.n_l), np.empty(3 * g), np.empty(g), np.empty(g)
    xw_zr, xw_h = xw[: 2 * g], xw[2 * g :]
    attn_w, attn_b, ctx_w = params.attn_w, params.attn_b, params.ctx_w
    w, u_zr, u_h, b = params.dec.W, params.dec.U[: 2 * g], params.dec.U[2 * g :], params.dec.b
    for t in range(n):
        h_prev, zr, cand = hs[t], zrs[t], cands[t]
        np.add(attn_w.dot(h_prev), attn_b, out=scores)
        scores -= scores.max()
        e = np.exp(scores, out=weights[t])
        e /= e.sum()
        e.dot(blocks, out=joined[t, :bd])
        if t:
            joined[t, bd:] = contexts[t - 1]
        w.dot(ctx_w.dot(joined[t], out=contexts[t]), out=xw)
        xw += b
        ad.sigmoid(np.add(xw_zr, u_zr.dot(h_prev), out=zr), out=zr)
        z = zr[:g]
        np.tanh(np.add(xw_h, u_h.dot(np.multiply(zr[g:], h_prev, out=reset)), out=cand), out=cand)
        h = np.multiply(z, h_prev, out=hs[t + 1])
        h += np.multiply(np.subtract(1.0, z, out=blend), cand, out=blend)
    logits = hs[1:] @ params.out_w.T + params.out_b
    return DecoderPass(blocks, weights, joined, contexts, hs, zrs, cands, logits)


def decoder_backward(params: ModelParams, grads: ModelParams, run: DecoderPass, d_logits: np.ndarray) -> np.ndarray:
    """Backpropagate d_logits (n, n_words) through a decoder run: adds the
    decoder's weight gradients into grads, returns the blocks' gradient.

    The factors of the GRU's pre-activation gradients that do not depend on
    the recurrence (1 - z, 1 - candidate^2, h_prev - candidate, 1 - r) are
    computed for all steps before the loop; each step multiplies its state
    gradient by them left to right, dh first, as one step alone would."""
    g, bd = params.cfg.n_g, params.cfg.block_dim
    n = d_logits.shape[0]
    grads.out_w += d_logits.T @ run.hs[1:]
    grads.out_b += d_logits.sum(axis=0)
    d_h_out = d_logits @ params.out_w
    h_prevs, zs, rs = run.hs[:-1], run.zrs[:, :g], run.zrs[:, g:]
    one_minus_z, one_minus_r = 1.0 - zs, 1.0 - rs
    one_minus_cand2, h_minus_cand = 1.0 - run.cands * run.cands, h_prevs - run.cands
    d_gru = np.empty((n, 3 * g))
    d_ctx = np.empty((n, g))
    d_joined = np.empty((n, bd + g))
    d_focus = d_joined[:, :bd]
    d_scores = np.empty((n, params.cfg.n_l))
    dh = np.zeros(g)
    d_ctx_next = np.zeros(g)  # reaches context t through step t + 1's joined input
    w_t, u_zr_t, u_h_t = params.dec.W.T, params.dec.U[: 2 * g].T, params.dec.U[2 * g :].T
    attn_w, ctx_w, blocks, weights = params.attn_w, params.ctx_w, run.blocks, run.weights
    for t in range(n - 1, -1, -1):
        dh += d_h_out[t]
        d_pre, z, r, h_prev = d_gru[t], zs[t], rs[t], h_prevs[t]
        d_z, d_r, d_cand = d_pre[:g], d_pre[g : 2 * g], d_pre[2 * g :]
        np.multiply(dh, one_minus_z[t], out=d_cand)
        d_cand *= one_minus_cand2[t]
        d_rh = u_h_t.dot(d_cand)
        np.multiply(dh, h_minus_cand[t], out=d_z)
        d_z *= z
        d_z *= one_minus_z[t]
        np.multiply(d_rh, h_prev, out=d_r)
        d_r *= r
        d_r *= one_minus_r[t]
        dh *= z  # the previous state's gradient: dh z + d_rh r + U_zr^T d_zr
        dh += np.multiply(d_rh, r, out=d_rh)
        dh += u_zr_t.dot(d_pre[: 2 * g])
        np.add(w_t.dot(d_pre), d_ctx_next, out=d_ctx[t]).dot(ctx_w, out=d_joined[t])
        d_ctx_next = d_joined[t, bd:]
        a = weights[t]
        d_a = blocks.dot(d_focus[t])
        d_a -= a.dot(d_a)
        dh += np.multiply(a, d_a, out=d_scores[t]).dot(attn_w)
    ad.gru_weight_grads(grads.dec, d_gru, run.contexts, h_prevs, run.zrs)
    grads.ctx_w += d_ctx.T @ run.joined
    grads.attn_w += d_scores.T @ h_prevs
    grads.attn_b += d_scores.sum(axis=0)
    return weights.T @ d_focus


# ---------------------------------------------------------------------------
# Training objective
# ---------------------------------------------------------------------------


def _path_prediction_loss(
    params: ModelParams, inputs: np.ndarray, target: PathIds, grads: ModelParams | None = None
) -> float:
    """Mean cross entropy of the target's unpadded words, decoded from the sum
    of the encodings of inputs, an id_table; with grads, also adds the loss
    gradient into grads."""
    blocks, cache = encode_blocks(params, inputs)
    n = target.true_length
    run = decode_path(params, blocks.sum(axis=0), n)
    losses, d_logits = ad.softmax_cross_entropy(run.logits, target.word_ids[:n])
    loss = float(losses.sum()) / n
    if grads is not None:
        encoder_backward(params, grads, cache, decoder_backward(params, grads, run, d_logits / n))
    return loss


EpochCallback = Callable[[int, float, ModelParams], None]


def train(
    groups: Sequence[tuple[tuple[str, str], Sequence[PathIds]]],
    cfg: ModelConfig,
    n_words: int,
    n_deps: int,
    n_pos: int,
    on_epoch: EpochCallback | None = None,
) -> ModelParams:
    """SGD over the held-out-path objective.

    Per epoch: shuffle groups, pick the held-out index uniformly per group,
    cap the encoder inputs at max_input_paths (random subsample), sum losses
    over each batch of size m, clip the global gradient norm, and step. All
    randomness flows from cfg.seed, so identical inputs give bitwise
    identical parameters. A NumericError names the epoch and, shortened by
    reprlib, what failed: a non-finite example loss its pair, a non-finite
    gradient norm the pairs of its batch; a non-finite parameter after the
    last step names the tensor. on_epoch, if given, is called after every
    epoch with its number (from 1), mean loss and the parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(cfg, n_words, n_deps, n_pos, rng)
    grads = params.zeros_like()
    tables = [id_table(paths) for _, paths in groups]

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(groups))
        example_losses: list[float] = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            for gi in batch:
                pair, paths = groups[int(gi)]
                u = int(rng.integers(len(paths)))
                index = [i for i in range(len(paths)) if i != u]
                if len(index) > cfg.max_input_paths:
                    keep = sorted(rng.choice(len(index), size=cfg.max_input_paths, replace=False).tolist())
                    index = [index[i] for i in keep]
                loss = _path_prediction_loss(params, tables[gi].take(index, axis=1), paths[u], grads)
                if not math.isfinite(loss):
                    raise NumericError(f"epoch {epoch}, pair {reprlib.repr(pair)}: non-finite example loss")
                example_losses.append(loss)
            if not math.isfinite(ad.clip_gradients(grads.flat)):
                pairs = [groups[int(gi)][0] for gi in batch]
                raise NumericError(f"epoch {epoch}, pairs {reprlib.repr(pairs)}: non-finite gradient norm")
            ad.sgd_step(params.flat, grads.flat, cfg.learning_rate)
        if on_epoch is not None:
            on_epoch(epoch, math.fsum(example_losses) / len(example_losses), params)
    # No loss is computed after the last step, so nothing above has seen its result.
    _require_finite(params, f"epoch {cfg.epochs}")
    return params
