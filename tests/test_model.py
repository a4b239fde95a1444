import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cure.autodiff as ad
import cure.model as mdl
import graph_oracle as g
from cure.errors import NumericError, ValidationError
from cure.model import (
    ModelConfig,
    ModelParams,
    PathIds,
    decode_path,
    encode_blocks,
    encoder_backward,
    encode_distinct,
    id_table,
    infer_relation_vector,
    paths_to_ids,
    read_checkpoint,
    train,
    write_checkpoint,
)
from cure.paths import PairGroup, SspTriple
from cure.vocab import PAD, UNK, UNK_ID, Vocab

from helpers import (
    WriteFailed,
    encode_path,
    fail_writes_halfway,
    max_rel_error,
    pad_or_truncate,
    reference_decoder,
    reference_encoder,
    scalar_gru_step,
    scalar_lstm_step,
    tensor_rel_error,
    training_loss,
)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(
        n_h=2, n_h2=2, n_g=4, n_l=3, d_w=3, d_d=2, d_p=2,
        max_input_paths=8, learning_rate=0.1, epochs=1, batch_size=2, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_params(cfg, n_words=10, n_deps=5, n_pos=5, seed=1):
    return ModelParams(cfg, n_words, n_deps, n_pos, np.random.default_rng(seed))


def zero_out(params: ModelParams) -> None:
    params.flat[...] = 0.0


def ids_path(cfg, word_ids, dep_ids=None, pos_ids=None, true_length=None):
    n = cfg.n_l
    assert len(word_ids) == n
    return PathIds(
        word_ids=tuple(word_ids),
        dep_ids=tuple(dep_ids or [2] * n),
        pos_ids=tuple(pos_ids or [2] * n),
        true_length=true_length if true_length is not None else n,
    )


def cell_dict(params: ModelParams, prefix: str) -> dict:
    """One cell's per-gate tensors, by checkpoint name without the prefix."""
    return {
        name.split(".")[-1]: arr.tolist() for name, arr in params.arrays().items() if name.startswith(prefix + ".")
    }


def scalar_encode_blocks(params: ModelParams, path: PathIds) -> list[list[float]]:
    """Oracle: embeddings + forward/backward scalar LSTMs, blocks concatenated."""
    cfg = params.cfg
    xs = []
    for w, d, p in zip(path.word_ids, path.dep_ids, path.pos_ids):
        xs.append(
            list(params.word_emb[w]) + list(params.dep_emb[d]) + list(params.pos_emb[p])
        )
    fwd_p, bwd_p = cell_dict(params, "enc_fwd"), cell_dict(params, "enc_bwd")
    forward = []
    h, c = [0.0] * cfg.n_h, [0.0] * cfg.n_h
    for x in xs:
        h, c = scalar_lstm_step(x, h, c, fwd_p)
        forward.append(h)
    backward = []
    h, c = [0.0] * cfg.n_h2, [0.0] * cfg.n_h2
    for x in reversed(xs):
        h, c = scalar_lstm_step(x, h, c, bwd_p)
        backward.append(h)
    backward = backward[::-1]
    return [f + b for f, b in zip(forward, backward)]


def scalar_decode_logits(params: ModelParams, blocks: list[list[float]]) -> list[list[float]]:
    """Oracle for the decoder recurrence: score blocks from the GRU state,
    blend them by softmax weight, project with the previous context, step
    the GRU, and read logits off the output layer."""
    cfg = params.cfg
    gru_p = cell_dict(params, "dec")
    h = [0.0] * cfg.n_g
    ctx_prev = [0.0] * cfg.n_g
    logits = []
    for _ in range(cfg.n_l):
        scores = [
            float(params.attn_b[b]) + sum(float(params.attn_w[b][k]) * h[k] for k in range(cfg.n_g))
            for b in range(cfg.n_l)
        ]
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        total = sum(exps)
        weights = [e / total for e in exps]
        focus = [sum(weights[b] * blocks[b][k] for b in range(cfg.n_l)) for k in range(cfg.block_dim)]
        joined = focus + ctx_prev
        context = [
            sum(float(params.ctx_w[r][k]) * joined[k] for k in range(len(joined)))
            for r in range(cfg.n_g)
        ]
        h = scalar_gru_step(context, h, gru_p)
        step_logits = [
            float(params.out_b[r]) + sum(float(params.out_w[r][k]) * h[k] for k in range(cfg.n_g))
            for r in range(params.n_words)
        ]
        logits.append(step_logits)
        ctx_prev = context
    return logits


class TestEncode:
    def test_zero_parameters_give_zero_encoding(self):
        cfg = tiny_config()
        params = make_params(cfg)
        zero_out(params)
        out = encode_path(params, ids_path(cfg, [3, 4, 5]))
        assert np.array_equal(out, np.zeros(cfg.n_l * cfg.block_dim))

    def test_dimension_arithmetic(self):
        cfg = tiny_config(n_l=3, n_h=2, n_h2=2)
        params = make_params(cfg)
        assert encode_path(params, ids_path(cfg, [1, 2, 3])).shape == (12,)
        blocks, _ = encode_blocks(params, id_table([ids_path(cfg, [1, 2, 3])] * 5))
        assert blocks.shape == (5, 3, 4)

    def test_matches_scalar_oracle(self):
        cfg = tiny_config()
        params = make_params(cfg, seed=21)
        path = ids_path(cfg, [3, 1, 7], dep_ids=[2, 3, 1], pos_ids=[4, 2, 0])
        other = ids_path(cfg, [5, 0, 2], dep_ids=[1, 1, 4], pos_ids=[3, 3, 1])
        blocks, _ = encode_blocks(params, id_table([path, other]))
        for got, p in zip(blocks, [path, other]):
            expected = scalar_encode_blocks(params, p)
            assert np.allclose(got, expected, rtol=1e-12)
        flat = encode_path(params, path)
        assert np.allclose(flat, [v for blk in scalar_encode_blocks(params, path) for v in blk], rtol=1e-12)


def random_params(cfg, rng: np.random.Generator) -> ModelParams:
    """Parameters over 30 words, 8 tags and 8 POS tags, drawn from rng
    uniformly in +-0.5, biases too, which start at zero."""
    params = make_params(cfg, n_words=30, n_deps=8, n_pos=8)
    params.flat[...] = rng.uniform(-0.5, 0.5, params.flat.size)
    return params


def random_paths(cfg, rng: np.random.Generator, count: int) -> list[PathIds]:
    return [
        PathIds(*(tuple(int(v) for v in rng.integers(n, size=cfg.n_l)) for n in (30, 8, 8)), cfg.n_l)
        for _ in range(count)
    ]


class TestBidirectionalEncoder:
    """encode_blocks and encoder_backward, which step both LSTM directions
    together, against one single-direction reference run per direction."""

    def run_both(self, cfg, batch: int, seed: int):
        rng = np.random.default_rng(seed)
        params = random_params(cfg, rng)
        paths = random_paths(cfg, rng, batch)
        d_summed = rng.uniform(-1, 1, (cfg.n_l, cfg.block_dim))  # the gradient on the sum of the paths' blocks
        fused, reference = params.zeros_like(), params.zeros_like()
        blocks, cache = encode_blocks(params, id_table(paths))
        encoder_backward(params, fused, cache, d_summed)
        expected = reference_encoder(params, paths, np.broadcast_to(d_summed, blocks.shape), reference)
        return blocks, expected, fused.arrays(), reference.arrays()

    @pytest.mark.parametrize("n_h, n_h2, batch", [(16, 16, 1), (16, 16, 2), (16, 16, 184), (3, 5, 3)])
    def test_bit_for_bit(self, n_h, n_h2, batch):
        """Each direction's products keep their single-direction shapes and
        layouts, so nothing rounds differently, whatever the two sizes."""
        cfg = tiny_config(n_h=n_h, n_h2=n_h2, n_g=8, n_l=6, d_w=24, d_d=8, d_p=8)
        blocks, expected, fused, reference = self.run_both(cfg, batch, seed=batch)
        assert np.array_equal(blocks, expected)
        for name, grad in fused.items():
            assert np.array_equal(grad, reference[name]), name

    @pytest.mark.parametrize("batch", [1, 3, 184])
    def test_encode_without_history_is_bit_for_bit(self, batch):
        """encode_distinct keeps one step of the LSTM's cell states and gates
        (see test_memory), and gives the states of a run that keeps them all."""
        cfg = tiny_config(n_h=16, n_h2=16, n_g=8, n_l=6, d_w=24, d_d=8, d_p=8)
        rng = np.random.default_rng(batch)
        params = random_params(cfg, rng)
        paths = list(dict.fromkeys(random_paths(cfg, rng, batch)))
        blocks, _ = encode_blocks(params, id_table(paths))
        encodings = encode_distinct(params, paths)
        for path, block in zip(paths, blocks):
            assert np.array_equal(encodings[path], block.reshape(-1))


class TestDecoderLoops:
    """decode_path and decoder_backward, whose GRU steps run on weights and
    factors bound before their loops, against one gru_step and one
    gru_step_backward call per step (tests/helpers.py)."""

    @pytest.mark.parametrize("steps", [1, 3, 6])
    @pytest.mark.parametrize("n_g", [8, 48])
    def test_bit_for_bit(self, steps, n_g):
        cfg = tiny_config(n_h=16, n_h2=16, n_g=n_g, n_l=6, d_w=24, d_d=8, d_p=8)
        rng = np.random.default_rng(steps)
        params = random_params(cfg, rng)
        blocks = rng.uniform(-1, 1, (cfg.n_l, cfg.block_dim))
        d_logits = rng.uniform(-1, 1, (steps, params.n_words))
        looped, reference = params.zeros_like(), params.zeros_like()
        run = decode_path(params, blocks, steps)
        d_blocks = mdl.decoder_backward(params, looped, run, d_logits)
        logits, expected = reference_decoder(params, blocks, steps, d_logits, reference)
        assert np.array_equal(run.logits, logits)
        assert np.array_equal(d_blocks, expected)
        for name, grad in looped.arrays().items():
            assert np.array_equal(grad, reference.arrays()[name]), name


class TestAggregate:
    """A pair's relation vector sums its path encodings (infer_relation_vector)."""

    @staticmethod
    def aggregate(vs: list[np.ndarray]) -> np.ndarray:
        encodings = {i: v for i, v in enumerate(vs)}
        summed = infer_relation_vector(list(encodings), encodings)
        assert all(np.array_equal(encodings[i], v) for i, v in enumerate(vs))  # the encodings stay as they were
        return summed

    def test_single_input_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        summed = self.aggregate([v])
        assert np.array_equal(summed, v)
        assert summed is not v

    def test_additive_inverse(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(self.aggregate([v, -v]), np.zeros(3))

    def test_commutative(self):
        rng = np.random.default_rng(31)
        vs = [rng.normal(size=6) for _ in range(4)]
        assert np.allclose(self.aggregate(vs), self.aggregate(vs[::-1]))


class TestDecode:
    def test_shape_contract(self):
        cfg = tiny_config(n_l=4)
        params = make_params(cfg, n_words=9)
        logits = decode_path(params, np.zeros((cfg.n_l, cfg.block_dim)), cfg.n_l).logits
        assert logits.shape == (4, 9)
        assert decode_path(params, np.zeros((cfg.n_l, cfg.block_dim)), 2).logits.shape == (2, 9)

    def test_zero_everything_gives_uniform_prediction(self):
        cfg = tiny_config()
        params = make_params(cfg, n_words=10)
        zero_out(params)
        logits = decode_path(params, np.zeros((cfg.n_l, cfg.block_dim)), cfg.n_l).logits
        assert np.array_equal(logits, np.zeros((cfg.n_l, 10)))
        losses, _ = ad.softmax_cross_entropy(logits, [0] * cfg.n_l)
        for loss in losses:
            assert math.isclose(float(loss), math.log(10), rel_tol=1e-15)

    def test_matches_scalar_oracle(self):
        cfg = tiny_config()
        params = make_params(cfg, n_words=7, seed=33)
        rng = np.random.default_rng(34)
        vector = rng.uniform(-1, 1, cfg.n_l * cfg.block_dim)
        blocks = vector.reshape(cfg.n_l, cfg.block_dim)
        logits = decode_path(params, blocks, cfg.n_l).logits
        expected = scalar_decode_logits(params, [list(b) for b in blocks])
        for got, want in zip(logits, expected):
            assert np.allclose(got, want, rtol=1e-10)


class TestTrainingLoss:
    def test_zero_parameters_loss_is_log_vocab(self):
        """With all-zero parameters every step predicts uniformly."""
        cfg = tiny_config(n_l=5)
        params = make_params(cfg, n_words=10)
        zero_out(params)
        group = [ids_path(cfg, [1, 2, 3, 4, 5], true_length=4), ids_path(cfg, [2, 3, 4, 5, 6], true_length=4)]
        loss = training_loss(params, group, held_out=1)
        assert abs(loss - math.log(10)) < 1e-12

    def test_true_length_one_is_single_position_entropy(self):
        cfg = tiny_config()
        params = make_params(cfg, n_words=8, seed=41)
        group = [ids_path(cfg, [1, 2, 3]), ids_path(cfg, [4, 0, 0], true_length=1)]
        loss = training_loss(params, group, held_out=1)
        blocks = encode_blocks(params, id_table([group[0]]))[0][0]
        step0 = decode_path(params, blocks, 1).logits
        direct, _ = ad.softmax_cross_entropy(step0, [4])
        assert math.isclose(loss, float(direct[0]), rel_tol=1e-12)

    def test_single_path_group_rejected(self):
        cfg = tiny_config()
        params = make_params(cfg)
        with pytest.raises(ValidationError):
            training_loss(params, [ids_path(cfg, [1, 2, 3])], held_out=0)

    def test_loss_is_nonnegative(self):
        cfg = tiny_config()
        params = make_params(cfg, seed=43)
        group = [ids_path(cfg, [1, 2, 3]), ids_path(cfg, [3, 2, 1])]
        assert training_loss(params, group, held_out=0) >= 0.0

    def test_fifty_sgd_steps_halve_the_loss(self):
        """Two identical paths: repeated steps on the same example converge."""
        cfg = tiny_config(n_l=4)
        params = make_params(cfg, n_words=12, seed=44)
        group = [ids_path(cfg, [5, 2, 9, 3]), ids_path(cfg, [5, 2, 9, 3])]
        grads = params.zeros_like()
        first = None
        last = None
        for _ in range(50):
            last = training_loss(params, group, held_out=1, grads=grads)
            if first is None:
                first = last
            ad.clip_gradients(grads.flat)
            ad.sgd_step(params.flat, grads.flat, 0.5)
        assert last < 0.5 * first


class TestEndToEndGradients:
    def test_all_parameter_tensors_match_finite_differences(self):
        """Full encoder-decoder loss on a two-path group, every tensor."""
        cfg = tiny_config(n_l=4, n_h=3, n_h2=3, n_g=4, d_w=3, d_d=2, d_p=2)
        params = make_params(cfg, n_words=8, n_deps=4, n_pos=4, seed=51)
        group = [
            ids_path(cfg, [1, 5, 2, 7], dep_ids=[1, 2, 3, 0], pos_ids=[3, 1, 2, 0]),
            ids_path(cfg, [2, 6, 3, 7], dep_ids=[2, 1, 3, 0], pos_ids=[1, 3, 2, 0], true_length=3),
        ]

        grads = params.zeros_like()
        training_loss(params, group, held_out=1, grads=grads)
        fd = g.finite_difference(lambda: training_loss(params, group, held_out=1), params.arrays())
        for name, grad in grads.arrays().items():
            err = max_rel_error(grad, fd[name])
            assert err < 1e-3, f"{name}: max rel error {err}"



class TestGraphOracle:
    """The hand-derived passes against the reverse-mode graph, which computes
    the same model one per-gate vector op at a time. The threshold, 1e-12
    relative to each tensor's largest entry, allows float64 rounding in a
    different summation order and nothing else."""

    def random_case(self, rng, n_inputs: int, batch_size: int):
        cfg = tiny_config(
            n_h=int(rng.integers(1, 6)), n_h2=int(rng.integers(1, 6)), n_g=int(rng.integers(1, 7)),
            n_l=int(rng.integers(2, 7)), d_w=int(rng.integers(1, 5)), d_d=int(rng.integers(1, 4)),
            d_p=int(rng.integers(1, 4)),
        )
        sizes = dict(n_words=int(rng.integers(2, 15)), n_deps=int(rng.integers(2, 6)), n_pos=int(rng.integers(2, 6)))
        params = ModelParams(cfg, **sizes, rng=rng)
        examples = []
        for _ in range(batch_size):
            group = [
                PathIds(
                    word_ids=tuple(int(v) for v in rng.integers(sizes["n_words"], size=cfg.n_l)),
                    dep_ids=tuple(int(v) for v in rng.integers(sizes["n_deps"], size=cfg.n_l)),
                    pos_ids=tuple(int(v) for v in rng.integers(sizes["n_pos"], size=cfg.n_l)),
                    true_length=int(rng.integers(1, cfg.n_l + 1)),
                )
                for _ in range(n_inputs + 1)
            ]
            examples.append((group, int(rng.integers(n_inputs + 1))))
        return cfg, params, examples

    def test_loss_and_every_gradient_match_graph_oracle(self):
        rng = np.random.default_rng(71)
        short_targets = 0
        for trial in range(32):
            n_inputs, batch_size = trial % 8 + 1, (1, 3)[trial // 8 % 2]
            cfg, params, examples = self.random_case(rng, n_inputs, batch_size)
            short_targets += sum(group[u].true_length < cfg.n_l for group, u in examples)
            tensors = g.graph_tensors(params)
            oracle = g.add_n([g.training_loss(tensors, cfg, group, u) for group, u in examples])
            g.backward(oracle)
            grads = params.zeros_like()
            total = sum(training_loss(params, group, u, grads=grads) for group, u in examples)
            assert abs(total - float(oracle.data)) <= 1e-12 * abs(float(oracle.data)), trial
            for name, grad in grads.arrays().items():
                err = tensor_rel_error(grad, tensors[name].grad)
                assert err < 1e-12, f"trial {trial}, {name}: {err:.2e}"
        assert short_targets > 0


class TestTrain:
    def groups(self, cfg):
        g1 = [ids_path(cfg, [2, 3, 4]), ids_path(cfg, [2, 3, 5]), ids_path(cfg, [2, 3, 4])]
        g2 = [ids_path(cfg, [6, 7, 8]), ids_path(cfg, [6, 7, 9])]
        return [(("A", "B"), g1), (("C", "D"), g2)]

    def train(self, cfg) -> tuple[ModelParams, list[float]]:
        """The trained parameters and the per-epoch losses train reported."""
        losses = []
        params = train(self.groups(cfg), cfg, 10, 5, 5, on_epoch=lambda epoch, loss, _: losses.append((epoch, loss)))
        assert [epoch for epoch, _ in losses] == list(range(1, cfg.epochs + 1))
        return params, [loss for _, loss in losses]

    def test_zero_epochs_returns_initialized_params(self):
        cfg = tiny_config(epochs=0)
        params, losses = self.train(cfg)
        fresh_arrays = ModelParams(cfg, 10, 5, 5, np.random.default_rng(cfg.seed)).arrays()
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, fresh_arrays[name]), name
        assert losses == []

    def test_same_seed_is_bitwise_identical(self):
        cfg = tiny_config(epochs=3)
        a, a_losses = self.train(cfg)
        b, b_losses = self.train(cfg)
        assert a_losses == b_losses
        for name, arr in a.arrays().items():
            assert np.array_equal(arr, b.arrays()[name]), name

    def test_loss_decreases_over_epochs(self):
        cfg = tiny_config(epochs=40, learning_rate=0.5, batch_size=1)
        _, losses = self.train(cfg)
        assert losses[-1] < 0.6 * losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_names_epoch_and_pair(self):
        """A step this large overflows the parameters; the next example's loss is not finite."""
        cfg = tiny_config(epochs=2, batch_size=1, learning_rate=1e308)
        with pytest.raises(NumericError, match=r"epoch \d+, pair \('[A-D]', '[A-D]'\): non-finite example loss"):
            train(self.groups(cfg), cfg, 10, 5, 5)

    def test_inputs_past_max_input_paths_are_a_seeded_ordered_subsample(self, monkeypatch):
        """One pair of 12 distinct paths, at most 3 inputs: every example's
        inputs are 3 of the 11 paths it does not predict, in the group's
        order, and the same seed draws the same ones."""
        cfg = tiny_config(max_input_paths=3, epochs=6)
        paths = [ids_path(cfg, [i, 2, 3]) for i in range(1, 13)]
        real, examples = mdl._path_prediction_loss, []

        def recorded(params, inputs, target, grads=None):
            # inputs is an id table; path i's first word is i + 1
            examples.append((tuple(int(word) - 1 for word in inputs[0, :, 0]), paths.index(target)))
            return real(params, inputs, target, grads)

        monkeypatch.setattr(mdl, "_path_prediction_loss", recorded)
        runs = []
        for _ in range(2):
            examples = []
            train([(("A", "B"), paths)], cfg, 13, 5, 5)
            runs.append(examples)
        assert len(runs[0]) == cfg.epochs
        for inputs, target in runs[0]:
            assert len(inputs) == 3 and list(inputs) == sorted(inputs) and target not in inputs
        assert runs[0] == runs[1]
        assert len({inputs for inputs, _ in runs[0]}) > 1

    def test_nonfinite_gradient_norm_names_epoch_and_pair(self, monkeypatch):
        """The norm belongs to the whole batch, which at batch_size 2 holds both pairs."""
        monkeypatch.setattr(ad, "clip_gradients", lambda grad, max_norm=ad.GRAD_CLIP_NORM: math.inf)
        cfg = tiny_config()
        assert cfg.batch_size == 2
        with pytest.raises(NumericError) as err:
            train(self.groups(cfg), cfg, 10, 5, 5)
        assert str(err.value) in (
            "epoch 1, pairs [('A', 'B'), ('C', 'D')]: non-finite gradient norm",
            "epoch 1, pairs [('C', 'D'), ('A', 'B')]: non-finite gradient norm",
        )

    @pytest.mark.parametrize("failure", ["example loss", "gradient norm"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_long_pair_name_is_shortened_in_the_error(self, monkeypatch, failure):
        cfg = tiny_config(epochs=2, batch_size=1, learning_rate=1e308)
        if failure == "gradient norm":
            monkeypatch.setattr(ad, "clip_gradients", lambda grad, max_norm=ad.GRAD_CLIP_NORM: math.inf)
        groups = [(("x" * 5000, "o" * 5000), paths) for _, paths in self.groups(cfg)]
        with pytest.raises(NumericError, match=f"non-finite {failure}$") as err:
            train(groups, cfg, 10, 5, 5)
        assert str(err.value).startswith("epoch ") and len(str(err.value)) < 200, str(err.value)[:300]


class TestInference:
    def test_single_path_group_equals_path_encoding(self):
        cfg = tiny_config()
        params = make_params(cfg, seed=61)
        path = ids_path(cfg, [1, 2, 3])
        vec = infer_relation_vector([path], encode_distinct(params, [path]))
        assert np.array_equal(vec, encode_path(params, path).data)

    def test_identical_path_multisets_give_identical_vectors(self):
        cfg = tiny_config()
        params = make_params(cfg, seed=62)
        paths = [ids_path(cfg, [1, 2, 3]), ids_path(cfg, [4, 5, 6])]
        encodings = encode_distinct(params, paths)
        a = infer_relation_vector(paths, encodings)
        b = infer_relation_vector(paths[::-1], encodings)
        assert np.allclose(a, b)


class TestCheckpoint:
    VOCABS = (Vocab((PAD, UNK, "naïve\nword", "b")), Vocab((PAD, UNK, "nsubj")), Vocab((PAD, UNK)))

    def params(self) -> ModelParams:
        """Parameters that hold awkward values: a tiny one, -0.0 and one with many digits."""
        params = ModelParams(tiny_config(), 4, 3, 2, np.random.default_rng(13))
        params.flat[:3] = [1e-300, -0.0, 123456789.123456789]
        return params

    def test_round_trip_is_bitwise(self, tmp_path):
        params, path = self.params(), tmp_path / "model.ckpt"
        write_checkpoint(path, params, self.VOCABS)
        loaded, vocabs = read_checkpoint(path)
        assert loaded.cfg == params.cfg
        assert vocabs == self.VOCABS
        assert loaded.flat.tobytes() == params.flat.tobytes()  # bit for bit, the sign of -0.0 included

    @pytest.mark.parametrize("order", ["<f8", ">f8"])
    def test_tensor_bytes_in_the_file_byte_order(self, tmp_path, monkeypatch, order):
        """The tensors are written from and read into params.flat; the file
        is little-endian on any host. The big-endian order that stands in
        for it here takes the path a host of the other byte order takes:
        a swapped copy written, the bytes read swapped back in place."""
        monkeypatch.setattr(mdl, "_TENSOR_DTYPE", np.dtype(order))
        params, path = self.params(), tmp_path / "model.ckpt"
        write_checkpoint(path, params, self.VOCABS)
        assert path.read_bytes().endswith(params.flat.astype(order).tobytes())
        assert read_checkpoint(path)[0].flat.tobytes() == params.flat.tobytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("NOT-A-MODEL\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            read_checkpoint(path)

    def test_truncated_block_detected(self, tmp_path):
        """Tensor bytes that stop inside a float64 are refused."""
        params, path = self.params(), tmp_path / "model.ckpt"
        write_checkpoint(path, params, self.VOCABS)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValidationError, match=f"the file holds {8 * params.flat.size - 1} tensor bytes"):
            read_checkpoint(path)

    @pytest.mark.parametrize("change", [-8, 8])
    def test_file_changed_while_read(self, tmp_path, monkeypatch, change):
        """Tensor bytes cut short or grown after the size was taken are
        refused, not read into a half-filled or truncated buffer."""
        params, path = self.params(), tmp_path / "model.ckpt"
        write_checkpoint(path, params, self.VOCABS)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + bytes(change))
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size - change))
        with pytest.raises(ValidationError, match="the file changed while it was read"):
            read_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A write that dies partway leaves the old file byte-identical and no temporary behind."""
        params, path = self.params(), tmp_path / "model.ckpt"
        write_checkpoint(path, params, self.VOCABS)
        before = path.read_bytes()
        params.flat[...] = 0.0
        fail_writes_halfway(monkeypatch)
        with pytest.raises(WriteFailed):
            write_checkpoint(path, params, self.VOCABS)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


_SYMBOLS = st.sampled_from(["a", "b", "c", "unseen", PAD, UNK])


@st.composite
def _path(draw, max_len: int = 12) -> SspTriple:
    k = draw(st.integers(1, max_len))
    words, deps, poss = (tuple(draw(st.lists(_SYMBOLS, min_size=k, max_size=k))) for _ in range(3))
    return SspTriple(words, deps, poss)


class TestPathsToIds:
    # Three vocabularies in different orders, so that a mixed-up lookup shows.
    VOCABS = (Vocab((PAD, UNK, "a", "b")), Vocab((PAD, UNK, "c", "b", "a")), Vocab((PAD, UNK, "b")))

    @staticmethod
    def reference(path: SspTriple, n_l: int) -> PathIds:
        """Pad or truncate the strings, then look each one up."""
        padded = pad_or_truncate(path, n_l)

        def ids(vocab: Vocab, symbols) -> tuple[int, ...]:
            return tuple(vocab.symbols.index(s) if s in vocab.symbols else UNK_ID for s in symbols)

        words, deps, poss = TestPathsToIds.VOCABS
        return PathIds(ids(words, padded.words), ids(deps, padded.deps), ids(poss, padded.poss), padded.true_length)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(paths=st.lists(_path(), min_size=1, max_size=4), n_l=st.integers(2, 8))
    @example(
        paths=[SspTriple(("a", "unseen"), ("c", PAD), ("b", "x")), SspTriple(("b",) * 3, ("a",) * 3, (PAD,) * 3),
               SspTriple(("a", "b", "c", "a", PAD, "b"), ("b",) * 6, ("b", "unseen") * 3)],
        n_l=3,
    )
    def test_equals_padding_the_strings_then_looking_them_up(self, paths, n_l):
        """Paths shorter than, as long as and longer than n_l, unknown
        words and a literal <PAD>: the same ids, id for id."""
        group = PairGroup(pair=("s", "o"), paths=tuple(paths))
        assert paths_to_ids(group, self.VOCABS, n_l) == [self.reference(p, n_l) for p in paths]
