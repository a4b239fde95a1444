import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cure.autodiff as ad
import graph_oracle as g
from cure.errors import NumericError, ValidationError

from helpers import (
    gru_step as gru_step_into,
    gru_step_backward,
    lstm_backward,
    lstm_forward,
    max_rel_error,
    scalar_gru_step,
    scalar_lstm_step,
)


def rand_value(rng, *shape, name=""):
    return g.Value(rng.uniform(-1.0, 1.0, size=shape), name=name)


def rand_cell(rng, hidden: int, input_dim: int, n_gates: int, lstm: bool) -> ad.CellWeights:
    """Fused weights; an LSTM's W acts on the state, a GRU's on the input."""
    w_cols, u_cols = (hidden, input_dim) if lstm else (input_dim, hidden)
    return ad.CellWeights(
        W=rng.uniform(-1, 1, (n_gates * hidden, w_cols)),
        U=rng.uniform(-1, 1, (n_gates * hidden, u_cols)),
        b=rng.uniform(-1, 1, n_gates * hidden),
    )


def gate_dict(cell: ad.CellWeights, gates) -> dict:
    """Per-gate nested lists, as the scalar oracles take them."""
    size = cell.b.shape[0] // len(gates)
    out = {}
    for k, gate in enumerate(gates):
        rows = slice(k * size, (k + 1) * size)
        out[f"W_{gate}"] = cell.W[rows].tolist()
        out[f"U_{gate}"] = cell.U[rows].tolist()
        out[f"b_{gate}"] = cell.b[rows].tolist()
    return out


def zero_cell_like(cell: ad.CellWeights) -> ad.CellWeights:
    return ad.CellWeights(np.zeros_like(cell.W), np.zeros_like(cell.U), np.zeros_like(cell.b))


def gru_step(cell: ad.CellWeights, x: np.ndarray, h_prev: np.ndarray):
    """The fused GRU step's outputs (h, z|r, candidate) in fresh arrays."""
    g = h_prev.shape[0]
    h, zr, cand = np.empty(g), np.empty(2 * g), np.empty(g)
    gru_step_into(cell, x, h_prev, h, zr, cand)
    return h, zr, cand


class TestElementaryOps:
    """The graph oracle's primitives."""

    def test_sum_all_gradient_is_ones(self):
        x = g.Value(np.array([1.0, 2.0, 3.0]))
        g.backward(g.sum_all(x))
        assert np.array_equal(x.grad, np.ones(3))

    def test_product_rule(self):
        """loss = sum(x * y) gives grad(x) = y."""
        rng = np.random.default_rng(0)
        x, y = rand_value(rng, 5), rand_value(rng, 5)
        g.backward(g.sum_all(g.mul(x, y)))
        assert np.allclose(x.grad, y.data)
        assert np.allclose(y.grad, x.data)

    def test_matvec_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        w, x = rand_value(rng, 4, 3), rand_value(rng, 3)

        def loss_fn():
            return float(g.sum_all(g.tanh(g.matvec(w, x))).data)

        g.backward(g.sum_all(g.tanh(g.matvec(w, x))))
        fd = g.finite_difference(loss_fn, {"w": w.data, "x": x.data})
        assert max_rel_error(w.grad, fd["w"]) < 1e-6
        assert max_rel_error(x.grad, fd["x"]) < 1e-6

    def test_concat_routes_gradients(self):
        a, b = g.Value(np.array([1.0, 2.0])), g.Value(np.array([3.0]))
        out = g.concat([a, b])
        g.backward(g.sum_all(g.mul(out, g.Value(np.array([2.0, 3.0, 4.0])))))
        assert np.allclose(a.grad, [2.0, 3.0])
        assert np.allclose(b.grad, [4.0])

    def test_blend_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        w = rand_value(rng, 3)
        parts = [rand_value(rng, 4) for _ in range(3)]

        def graph():
            return g.sum_all(g.tanh(g.blend(w, parts)))

        g.backward(graph())
        fd = g.finite_difference(lambda: float(graph().data), {"w": w.data, "p0": parts[0].data})
        assert max_rel_error(w.grad, fd["w"]) < 1e-6
        assert max_rel_error(parts[0].grad, fd["p0"]) < 1e-6

    def test_row_accumulates_into_table(self):
        table = g.Value(np.ones((3, 2)))
        out = g.add(g.row(table, 1), g.row(table, 1))
        g.backward(g.sum_all(out))
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValidationError):
            g.add(g.Value(np.zeros(2)), g.Value(np.zeros(3)))
        with pytest.raises(ValidationError):
            g.matvec(g.Value(np.zeros((2, 2))), g.Value(np.zeros(3)))

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-18, 18)))
    def test_sigmoid_tanh_ranges(self, arr):
        """Sigmoid outputs stay in (0,1) and tanh in (-1,1), elementwise, in
        the graph and in the fused kernels' sigmoid.

        Tested over the float64-representable range: tanh rounds to exactly
        1.0 beyond |x| ~ 19 and sigmoid to 1.0 beyond |x| ~ 36.
        """
        for s in (g.sigmoid(g.Value(arr)).data, ad.sigmoid(arr)):
            assert np.all(s > 0) and np.all(s < 1)
        t = g.tanh(g.Value(arr)).data
        assert np.all(t > -1) and np.all(t < 1)

    def test_softmax_sums_to_one_and_matches_definition(self):
        rng = np.random.default_rng(3)
        x = rand_value(rng, 6)
        s = g.softmax(x).data
        direct = np.exp(x.data) / np.exp(x.data).sum()
        assert math.isclose(s.sum(), 1.0, rel_tol=1e-12)
        assert np.allclose(s, direct, rtol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        losses, _ = ad.softmax_cross_entropy(np.zeros((1, 4)), [1])
        assert math.isclose(float(losses[0]), math.log(4), rel_tol=1e-15)

    def test_confident_correct_limit(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 60.0
        losses, _ = ad.softmax_cross_entropy(logits, [2])
        assert float(losses[0]) < 1e-12

    def test_matches_high_precision_formula(self):
        """Random 7-dim logits against a Decimal evaluation of the definition."""
        from decimal import Decimal, getcontext

        getcontext().prec = 50
        rng = np.random.default_rng(4)
        z = rng.uniform(-5, 5, size=(20, 7))
        k = rng.integers(7, size=20)
        losses, _ = ad.softmax_cross_entropy(z, k)
        for row, target, loss in zip(z, k, losses):
            dz = [Decimal(repr(float(v))) for v in row]
            expected = (sum(v.exp() for v in dz)).ln() - dz[int(target)]
            assert math.isclose(float(loss), float(expected), rel_tol=1e-12)

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(2, 6))
        _, grad = ad.softmax_cross_entropy(x, [3, 0])
        probs = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        probs[0, 3] -= 1.0
        probs[1, 0] -= 1.0
        assert np.allclose(grad, probs, rtol=1e-12)
        oracle = g.Value(x[0])
        g.backward(g.softmax_cross_entropy(oracle, 3))
        assert np.allclose(grad[0], oracle.grad, rtol=1e-12)


class TestBackwardContract:
    """The graph oracle's backward pass."""

    def test_double_backward_doubles_gradients(self):
        x = g.Value(np.array([1.0, 2.0]))
        loss = g.sum_all(g.mul(x, x))
        g.backward(loss)
        once = x.grad.copy()
        g.backward(loss)
        assert np.allclose(x.grad, 2 * once)

    def test_fanout_accumulates(self):
        x = g.Value(np.array([3.0]))
        loss = g.sum_all(g.add(x, x))
        g.backward(loss)
        assert np.allclose(x.grad, [2.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValidationError):
            g.backward(g.Value(np.zeros(2)))

    def test_nonfinite_forward_is_hard_error(self):
        with pytest.raises(NumericError):
            g.Value(np.array([1.0, np.inf]))

    def test_forward_determinism(self):
        rng = np.random.default_rng(6)
        w = rng.uniform(-1, 1, (4, 4))
        x = rng.uniform(-1, 1, 4)
        out1 = g.tanh(g.matvec(g.Value(w), g.Value(x))).data
        out2 = g.tanh(g.matvec(g.Value(w), g.Value(x))).data
        assert np.array_equal(out1, out2)


def lstm_param_dict(p: g.LstmParams) -> dict:
    return {v.name.split(".")[-1]: v.data.tolist() for v in p.values()}


def gru_param_dict(p: g.GruParams) -> dict:
    return {v.name.split(".")[-1]: v.data.tolist() for v in p.values()}


class TestLstmStep:
    """The fused LSTM kernel (a batch of sequences) and the graph oracle's step."""

    def test_zero_parameters_fixed_point(self):
        """All-zero weights and state give h = 0 (gates at 0.5, tanh(0) = 0)."""
        rng = np.random.default_rng(7)
        p = g.LstmParams.init(3, 2, rng, "t")
        for v in p.values():
            v.data[...] = 0.0
        state = g.lstm_step(g.Value(np.array([0.7, -0.3])), g.LstmState.zeros(3), p)
        assert np.array_equal(state.h.data, np.zeros(3))
        assert np.array_equal(state.c.data, np.zeros(3))
        cells = [ad.CellWeights(np.zeros((4 * h, h)), np.zeros((4 * h, 2)), np.zeros(4 * h)) for h in (3, 5)]
        cache = ad.bilstm_forward(cells, rng.uniform(-1, 1, (4, 2, 2)))
        assert np.array_equal(cache.hs, np.zeros((5, 16)))
        assert np.array_equal(cache.cs, np.zeros((5, 16)))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        p = g.LstmParams.init(3, 4, rng, "t")
        x = rng.uniform(-1, 1, 4)
        h0 = rng.uniform(-1, 1, 3)
        c0 = rng.uniform(-1, 1, 3)
        state = g.lstm_step(g.Value(x), g.LstmState(g.Value(h0), g.Value(c0)), p)
        h_expected, c_expected = scalar_lstm_step(list(x), list(h0), list(c0), lstm_param_dict(p))
        assert np.allclose(state.h.data, h_expected, rtol=1e-12)
        assert np.allclose(state.c.data, c_expected, rtol=1e-12)

        cells = [rand_cell(rng, h, 4, 4, lstm=True) for h in (3, 2)]
        xs = rng.uniform(-1, 1, (5, 2, 4))
        cache = ad.bilstm_forward(cells, xs)
        for cell, inputs, fused in zip(cells, (xs, xs[::-1]), cache.by_direction(cache.hs[1:])):
            reference, _ = lstm_forward(cell, inputs)
            for b in range(2):
                h, c = [0.0] * cell.W.shape[1], [0.0] * cell.W.shape[1]
                for t in range(5):
                    h, c = scalar_lstm_step(list(inputs[t, b]), h, c, gate_dict(cell, ad.LSTM_GATES))
                    assert np.allclose(reference[t, b], h, rtol=1e-12)
                    assert np.allclose(fused[t, b], h, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        p = g.LstmParams.init(4, 3, rng, "t")
        x_data = rng.uniform(-1, 1, 3)

        def graph():
            state = g.lstm_step(g.Value(x_data), g.LstmState.zeros(4), p)
            return g.sum_all(g.mul(state.h, state.h))

        g.backward(graph())
        tensors = {v.name: v for v in p.values()}
        fd = g.finite_difference(lambda: float(graph().data), {n: v.data for n, v in tensors.items()})
        for name, v in tensors.items():
            assert max_rel_error(v.grad, fd[name]) < 1e-3, name

        xs = rng.uniform(-1, 1, (4, 3, 3))
        cells = [rand_cell(rng, h, 3, 4, lstm=True) for h in (4, 2)]

        def reference():
            hs, cache = lstm_forward(cells[0], xs)
            return [hs], lambda grads: lstm_backward(cells[0], grads[0], cache, 2.0 * hs)

        def bidirectional():
            cache = ad.bilstm_forward(cells, xs)
            return [cache.hs[1:]], lambda grads: ad.bilstm_backward(cells, grads, cache, 2.0 * cache.hs[1:])

        for run, used in ((reference, cells[:1]), (bidirectional, cells)):
            grads = [zero_cell_like(cell) for cell in used]
            d_xs = run()[1](grads)
            arrays = {"xs": xs} | {f"{k}{n}": getattr(cell, k) for n, cell in enumerate(used) for k in "WUb"}
            fd = g.finite_difference(lambda: float(sum(np.sum(h * h) for h in run()[0])), arrays)
            analytic = {"xs": d_xs} | {f"{k}{n}": getattr(grad, k) for n, grad in enumerate(grads) for k in "WUb"}
            for name in arrays:
                assert max_rel_error(analytic[name], fd[name]) < 1e-3, (run.__name__, name)


class TestGruStep:
    """The fused GRU step kernel (in helpers, the reference for the decoder's
    loops in model) and the graph oracle's step."""

    def test_update_gate_identity(self):
        """Forcing z to 1 keeps the previous hidden state unchanged."""
        rng = np.random.default_rng(10)
        p = g.GruParams.init(3, 2, rng, "t")
        p.W_z.data[...] = 0.0
        p.U_z.data[...] = 0.0
        p.b_z.data[...] = 50.0
        h0 = rng.uniform(-1, 1, 3)
        x = np.array([0.4, -0.9])
        state = g.gru_step(g.Value(x), g.GruState(g.Value(h0)), p)
        assert np.allclose(state.h.data, h0, atol=1e-15)
        fused = rand_cell(rng, 3, 2, 3, lstm=False)
        fused.W[:3] = 0.0
        fused.U[:3] = 0.0
        fused.b[:3] = 50.0
        h, _, _ = gru_step(fused, x, h0)
        assert np.allclose(h, h0, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        p = g.GruParams.init(3, 5, rng, "t")
        x = rng.uniform(-1, 1, 5)
        h0 = rng.uniform(-1, 1, 3)
        state = g.gru_step(g.Value(x), g.GruState(g.Value(h0)), p)
        expected = scalar_gru_step(list(x), list(h0), gru_param_dict(p))
        assert np.allclose(state.h.data, expected, rtol=1e-12)
        fused = rand_cell(rng, 3, 5, 3, lstm=False)
        h, _, _ = gru_step(fused, x, h0)
        assert np.allclose(h, scalar_gru_step(list(x), list(h0), gate_dict(fused, ad.GRU_GATES)), rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        p = g.GruParams.init(4, 4, rng, "t")
        x_data = rng.uniform(-1, 1, 4)
        h_data = rng.uniform(-1, 1, 4)

        def graph():
            state = g.gru_step(g.Value(x_data), g.GruState(g.Value(h_data)), p)
            return g.sum_all(g.mul(state.h, state.h))

        g.backward(graph())
        tensors = {v.name: v for v in p.values()}
        fd = g.finite_difference(lambda: float(graph().data), {n: v.data for n, v in tensors.items()})
        for name, v in tensors.items():
            assert max_rel_error(v.grad, fd[name]) < 1e-3, name

        fused = rand_cell(rng, 4, 3, 3, lstm=False)
        x = rng.uniform(-1, 1, 3)
        h0 = rng.uniform(-1, 1, 4)

        def loss_fn():
            h, _, _ = gru_step(fused, x, h0)
            return float(h @ h)

        h, zr, cand = gru_step(fused, x, h0)
        d_pre = np.empty(12)
        d_x, d_h0 = gru_step_backward(fused, h0, zr, cand, 2.0 * h, d_pre)
        grad = zero_cell_like(fused)
        ad.gru_weight_grads(grad, d_pre[None], x[None], h0[None], zr[None])
        arrays = {"W": fused.W, "U": fused.U, "b": fused.b, "x": x, "h0": h0}
        fd = g.finite_difference(loss_fn, arrays)
        analytic = {"W": grad.W, "U": grad.U, "b": grad.b, "x": d_x, "h0": d_h0}
        for name in arrays:
            assert max_rel_error(analytic[name], fd[name]) < 1e-3, name


class TestOptimizerPieces:
    def test_clip_rescales_to_cap(self):
        grad = np.array([30.0, 40.0, 0.0])
        norm = ad.clip_gradients(grad)
        assert math.isclose(norm, 50.0)
        assert math.isclose(float(np.linalg.norm(grad)), ad.GRAD_CLIP_NORM, rel_tol=1e-12)

    def test_clip_leaves_small_gradients_alone(self):
        grad = np.array([0.6, 0.8]) * (0.99 * ad.GRAD_CLIP_NORM)
        before = grad.copy()
        ad.clip_gradients(grad)
        assert np.array_equal(grad, before)

    def test_clip_rejects_nonfinite_norm(self):
        """A non-finite norm is returned, for train to refuse, and the buffer is left as it is."""
        for bad in (np.inf, np.nan):
            grad = np.array([10.0 * ad.GRAD_CLIP_NORM, bad])
            assert not math.isfinite(ad.clip_gradients(grad))
            assert np.array_equal(grad, [10.0 * ad.GRAD_CLIP_NORM, bad], equal_nan=True)

    def test_sgd_and_zero_grad(self):
        """The step consumes the gradient: it is zero afterwards."""
        param = np.array([1.0, 1.0])
        grad = np.array([0.5, -0.5])
        ad.sgd_step(param, grad, 0.1)
        assert np.allclose(param, [0.95, 1.05])
        assert np.array_equal(grad, np.zeros(2))
