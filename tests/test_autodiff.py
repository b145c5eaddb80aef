import tracemalloc

import numpy as np
import pytest

import evseen.autodiff as ad
from conftest import count_calls
from evseen.autodiff import Tensor, collect_tape, max_grad_error


def rand(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


def untaped(*tensors):
    """Copies holding the same data that need no gradient, so ops on them record nothing."""
    return [Tensor(t.data) for t in tensors]


class TestForward:
    def test_matmul_hand_checked(self):
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        out = ad.matmul(a, b)
        assert np.allclose(out.data, [[4.0, 5.0], [10.0, 11.0]])

    def test_softmax_of_zeros(self):
        out = ad.softmax_lastdim(Tensor(np.zeros(3)))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_mean_backward_is_uniform(self):
        x = rand((4, 5), 0)
        ad.mean(x).backward()
        assert np.allclose(x.grad, 1.0 / 20.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_broadcast_values_and_gradient_shapes(self):
        x = rand((4, 3), 30)
        row = rand((3,), 31)
        col = rand((4, 1), 32)
        out = x * row + col
        assert np.array_equal(out.data, x.data * row.data + col.data)
        ad.mean(out).backward()
        assert row.grad.shape == (3,) and col.grad.shape == (4, 1)
        assert np.allclose(row.grad, x.data.sum(axis=0) / 12.0)
        assert np.allclose(col.grad, 1.0 / 4.0)

    def test_scalar_ops(self):
        x = Tensor(np.array([1.0, -2.0]))
        assert np.allclose((x * 2.0 + 1.0).data, [3.0, -3.0])
        assert np.allclose((x * -1.0 + 1.0).data, [0.0, 3.0])


class TestGradCheck:
    PRIMITIVE_CASES = None  # built lazily below

    def test_sum_of_squares(self):
        assert max_grad_error(lambda t: ad.mean(t * t), rand((3, 4), 1), h=1e-4) < 1e-6

    def test_charbonnier_vs_zero_target(self):
        zero = np.zeros((4, 4, 3))
        assert max_grad_error(lambda t: ad.charbonnier_gradient_loss(t, zero, 1.0, 0.0, 1e-3), rand((4, 4, 3), 2)) < 1e-4

    def test_wrong_backward_fails(self):
        def broken(t):
            out = ad._make(t.data * 2.0, (t,), lambda g: (g * 3.0,))
            return ad.mean(out)

        assert not max_grad_error(broken, rand((3,), 3)) < 1e-4

    def test_every_primitive_on_seeded_shapes(self):
        rng = np.random.default_rng(100)
        shapes = [(3,), (4, 2), (2, 3), (5,), (3, 3), (1, 4), (6,), (2, 2), (4, 4), (2, 5)]
        for i, shape in enumerate(shapes):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            w = Tensor(rng.normal(size=shape))
            cases = {
                "add": lambda t: ad.mean((t + w) * w),
                "mul": lambda t: ad.mean(t * w),
                "relu": lambda t: ad.mean(ad.relu(t) * w),
                "sigmoid": lambda t: ad.mean(ad.sigmoid(t) * w),
                "softmax": lambda t: ad.mean(ad.softmax_lastdim(t) * w),
                "mean": lambda t: ad.mean(t) * 2.0,
                "reshape": lambda t: ad.mean(ad.reshape(t, (t.size,)) * ad.reshape(w, (w.size,))),
                "concat": lambda t: ad.mean(ad.concat_lastdim([t * w, t]) * ad.concat_lastdim([w, w * w])),
                "scalar": lambda t: ad.mean(t * 3.0 + 1.5),
            }
            # t broadcast along a new leading axis: a (C,) row over (3, C) for 1-d shapes
            big = Tensor(rng.normal(size=(3,) + shape))
            cases["bcast_add"] = lambda t: ad.mean((t + big) * big)
            cases["bcast_mul"] = lambda t: ad.mean(big * t * big)
            if len(shape) == 1:
                # t as the gain, then as the shift, of a layer norm over 3 rows of C
                rows = Tensor(rng.normal(size=(3,) + shape))
                cases["layer_norm_gamma"] = lambda t: ad.mean(ad.layer_norm(rows, t, w, 1e-5) * big)
                cases["layer_norm_beta"] = lambda t: ad.mean(ad.layer_norm(rows, w, t, 1e-5) * big)
            if len(shape) == 2:
                m = Tensor(rng.normal(size=(shape[1], 3)))
                cases["matmul"] = lambda t: ad.mean(ad.matmul(t, m))
                # t as queries, keys and values at once, then as keys and values for 5 queries
                heads = 2 if shape[1] % 2 == 0 else 1
                queries = Tensor(rng.normal(size=(5, shape[1])))
                cases["self_attention"] = lambda t: ad.mean(ad.attention(t, t, t, heads) * w)
                cases["cross_attention"] = lambda t: ad.mean(ad.attention(queries, t, t * 0.5, heads) * queries)
                gamma, beta = Tensor(rng.normal(size=shape[1:])), Tensor(rng.normal(size=shape[1:]))
                cases["layer_norm"] = lambda t: ad.mean(ad.layer_norm(t, gamma, beta, 1e-5) * w)
            for name, f in cases.items():
                err = max_grad_error(f, x, h=1e-5)
                assert err < 1e-4, f"{name} on shape {shape}: err {err}"

    def test_accumulation_on_reused_value(self):
        x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
        out = ad.mean(x * x)
        out.backward()
        assert np.allclose(x.grad, 2.0 * x.data / x.size)

    def test_two_path_accumulation(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = x * 2.0 + x * 3.0
        ad.mean(y).backward()
        assert np.allclose(x.grad, 5.0 / 2.0)

    def test_only_leaves_receive_grad(self):
        x = rand((3,), 34)
        y = x * 2.0
        y.requires_grad = True
        ad.mean(y * y).backward()
        assert y.grad is None
        assert np.allclose(x.grad, 8.0 * x.data / 3.0)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            rand((2, 2), 5).backward()
        with pytest.raises(ValueError):
            max_grad_error(lambda t: t * 2.0, rand((2,), 6))


class TestAttention:
    @staticmethod
    def reference(q, k, v, heads):
        """softmax(q_h k_h^T) v_h per head from plain numpy, heads side by side."""
        d = q.shape[1] // heads
        out = []
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            logits = q[:, cols].copy() @ k[:, cols].T.copy()
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            out.append(p @ v[:, cols].copy())
        return np.concatenate(out, axis=1)

    @pytest.mark.parametrize(
        "n, m, c, heads",
        # the last two run 8 blocks of 128 query rows per head at the real ATTENTION_BLOCK
        [(5, 5, 4, 1), (5, 7, 4, 2), (6, 3, 4, 4), (1, 9, 6, 3), (16, 16, 16, 2), (1024, 1024, 16, 2), (1024, 1024, 248, 8)],
    )
    def test_forward_equals_per_head_reference(self, n, m, c, heads):
        q, k, v = rand((n, c), 40), rand((m, c), 41), rand((m, c), 42)
        out = ad.attention(q, k, v, heads)
        assert np.array_equal(out.data, self.reference(q.data, k.data, v.data, heads))
        assert np.array_equal(ad.attention(*untaped(q, k, v), heads).data, out.data)

    @pytest.mark.parametrize("n, m, heads", [(4, 4, 1), (3, 5, 2), (5, 2, 4)])
    def test_gradients_match_central_differences(self, n, m, heads):
        q, k, v = rand((n, 4), 43), rand((m, 4), 44), rand((m, 4), 45)
        w = Tensor(np.random.default_rng(46).normal(size=(n, 4)))
        for role in range(3):
            def f(t, role=role):
                args = [q, k, v]
                args[role] = t
                return ad.mean(ad.attention(*args, heads) * w)

            x = Tensor((q, k, v)[role].data.copy())
            assert max_grad_error(f, x) < 1e-6, (role, heads)

    def test_query_blocks_with_short_last_block(self, monkeypatch):
        # 12 logits per block over 4 keys: blocks of 3, 3, 3 and 2 query rows
        monkeypatch.setattr(ad, "ATTENTION_BLOCK", 12)
        softmaxes = count_calls(monkeypatch, ad, "_softmax_")
        q, k, v = rand((11, 6), 49), rand((4, 6), 50), rand((4, 6), 51)
        out = ad.attention(q, k, v, 2)
        assert [a[0].shape for a in softmaxes] == [(3, 4), (3, 4), (3, 4), (2, 4)] * 2
        w = Tensor(np.random.default_rng(52).normal(size=(11, 6)))
        ad.mean(out * w).backward()
        assert len(softmaxes) == 8  # the backward rebuilds p from the saved log-sum-exp: no softmax
        assert np.abs(out.data - self.reference(q.data, k.data, v.data, 2)).max() < 1e-12
        assert np.array_equal(ad.attention(*untaped(q, k, v), 2).data, out.data)
        for role in range(3):
            def f(t, role=role):
                args = [q, k, v]
                args[role] = t
                return ad.mean(ad.attention(*args, 2) * w)

            assert max_grad_error(f, Tensor((q, k, v)[role].data.copy())) < 1e-6, role

    @staticmethod
    def reference_gradients(q, k, v, heads, g):
        """dq, dk, dv of sum(g * attention) from plain numpy: each head's full
        softmax p, and dlogits = p * (g v^T - rowsum(p * g v^T))."""
        d = q.shape[1] // heads
        grads = [np.empty_like(t) for t in (q, k, v)]
        for h in range(heads):
            c = slice(h * d, (h + 1) * d)
            logits = q[:, c] @ k[:, c].T
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            gp = g[:, c] @ v[:, c].T
            dlogits = p * (gp - (p * gp).sum(axis=1, keepdims=True))
            grads[0][:, c], grads[1][:, c], grads[2][:, c] = dlogits @ k[:, c], dlogits.T @ q[:, c], p.T @ g[:, c]
        return grads

    # the last case runs blocks of 4 query rows over 23 keys: 9 full and a last of 1
    @pytest.mark.parametrize("n, m, c, heads, block", [(5, 7, 4, 2, None), (256, 256, 16, 2, None), (37, 23, 12, 3, 100)])
    def test_gradients_match_full_softmax_reference(self, monkeypatch, n, m, c, heads, block):
        if block:
            monkeypatch.setattr(ad, "ATTENTION_BLOCK", block)
        q, k, v = rand((n, c), 60), rand((m, c), 61), rand((m, c), 62)
        g = np.random.default_rng(63).normal(size=(n, c))
        ad.mean(ad.attention(q, k, v, heads) * Tensor(g)).backward()
        expected = self.reference_gradients(q.data, k.data, v.data, heads, g / g.size)
        largest = max(np.abs(e).max() for e in expected)
        for got, want in zip((q.grad, k.grad, v.grad), expected):
            assert np.abs(got - want).max() <= 1e-12 * largest

    # float32 attention against the float64 max-shifted reference on the same
    # (float32) values: at most 1.5e-6 of the largest output measured over these shapes
    FLOAT32_GAP = 2e-6

    @staticmethod
    def f32(shape, seed):
        return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32))

    @classmethod
    def assert_near_reference(cls, out, q, k, v, heads):
        want = cls.reference(*(t.data.astype(np.float64) for t in (q, k, v)), heads)
        assert out.data.dtype == np.float32 and np.all(np.isfinite(out.data))
        assert np.abs(out.data - want).max() <= cls.FLOAT32_GAP * np.abs(want).max()

    @staticmethod
    def shifted(q, k, v, heads, softmax=ad._softmax_):
        """The max-shifted forward the fallback runs, written out: per head and
        block of max(1, ATTENTION_BLOCK // M) query rows, logits into an aligned
        buffer, the in-place softmax, then p @ v_h.  ``softmax`` is bound when
        the class is made, so a counting wrapper installed later misses these calls."""
        (n, c), m = q.shape, k.shape[0]
        d, step = c // heads, max(1, ad.ATTENTION_BLOCK // m)
        out = np.empty_like(q)
        buf = ad._aligned_empty((min(step, n), m), q.dtype)
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            qh, kh_t, vh = q[:, cols].copy(), k[:, cols].T.copy(), v[:, cols].copy()
            for i in range(0, n, step):
                p = np.matmul(qh[i : i + step], kh_t, out=buf[: min(step, n - i)])
                softmax(p)
                out[i : i + step, cols] = p @ vh
        return out

    @pytest.mark.parametrize(
        "n, m, c, heads",
        [(5, 5, 4, 1), (5, 7, 4, 2), (6, 3, 4, 4), (1, 9, 6, 3), (16, 16, 16, 2), (1024, 1024, 16, 2), (1024, 1024, 248, 8)],
    )
    def test_float32_takes_no_max_shift_under_the_bound(self, monkeypatch, n, m, c, heads):
        softmaxes = count_calls(monkeypatch, ad, "_softmax_")
        q, k, v = self.f32((n, c), 40), self.f32((m, c), 41), self.f32((m, c), 42)
        self.assert_near_reference(ad.attention(q, k, v, heads), q, k, v, heads)
        assert softmaxes == []

    # the last case runs blocks of 4 query rows over 23 keys: 9 full and a last of 1
    @pytest.mark.parametrize("n, m, c, heads, block", [(5, 7, 4, 2, None), (1024, 1024, 16, 2, None), (37, 23, 12, 3, 100)])
    def test_float32_past_the_bound_runs_the_shifted_forward(self, monkeypatch, n, m, c, heads, block):
        if block:
            monkeypatch.setattr(ad, "ATTENTION_BLOCK", block)
        softmaxes = count_calls(monkeypatch, ad, "_softmax_")
        q, k, v = self.f32((n, c), 43), self.f32((m, c), 44), self.f32((m, c), 45)
        q.data *= 100.0  # max |q_i| max |k_j| is well past 80 for every head
        out = ad.attention(q, k, v, heads)
        blocks = -(-n // max(1, ad.ATTENTION_BLOCK // m))
        assert len(softmaxes) == heads * blocks
        assert np.array_equal(out.data, self.shifted(q.data, k.data, v.data, heads))

    @pytest.mark.parametrize("role, bad", [(0, np.nan), (0, np.inf), (1, -np.inf), (1, np.nan), (2, np.nan), (2, np.inf)])
    def test_float32_nan_or_inf_input_falls_back(self, monkeypatch, role, bad):
        """A NaN or inf in one head's columns makes that head's bound NaN or inf:
        it runs the shifted forward, and the other head does not."""
        softmaxes = count_calls(monkeypatch, ad, "_softmax_")
        args = [self.f32((6, 8), 46), self.f32((5, 8), 47), self.f32((5, 8), 48)]
        args[role].data[2, 5] = bad  # head 1 of 2
        with np.errstate(invalid="ignore", over="ignore"):
            out = ad.attention(*args, 2).data
            want = self.shifted(*(t.data for t in args), 2)
        assert [a[0].shape for a in softmaxes] == [(6, 5)]
        assert np.array_equal(out[:, 4:], want[:, 4:], equal_nan=True)

    @pytest.mark.parametrize("v_max, shifted", [(2.0, False), (4.5, True)])
    def test_float32_bound_just_under_80(self, monkeypatch, v_max, shifted):
        """Logits reach +-74.375 = max |q_i| max |k_j|, and they are exact in
        float32 (quarter-integer entries), so the float64 reference sees the same
        logits.  With 64 keys and max |v| = 2 the bound reads 74.375 + log(128) =
        79.23 and no max shift runs; max |v| = 4.5 puts it at 80.04, past it."""
        softmaxes = count_calls(monkeypatch, ad, "_softmax_")
        rng = np.random.default_rng(49)
        q = rng.integers(-12, 13, size=(40, 4)) / 4.0
        k = rng.integers(-12, 13, size=(64, 4)) / 4.0
        q[0], k[0], k[1] = (8.5, 0, 0, 0), (8.75, 0, 0, 0), (-8.75, 0, 0, 0)
        v = rng.uniform(-1.0, 1.0, size=(64, 4))
        v[3, 0] = v_max
        q, k, v = (Tensor(a.astype(np.float32)) for a in (q, k, v))
        out = ad.attention(q, k, v, 1)
        assert len(softmaxes) == int(shifted)
        assert np.abs(q.data @ k.data.T).max() == 74.375
        self.assert_near_reference(out, q, k, v, 1)

    # the last case runs blocks of 4 query rows over 23 keys: 9 full and a last of 1
    @pytest.mark.parametrize("n, m, c, heads, block", [(5, 7, 4, 2, None), (256, 256, 16, 2, None), (37, 23, 12, 3, 100)])
    def test_float32_taped_gradients(self, monkeypatch, n, m, c, heads, block):
        """The backward rebuilds p from the unshifted path's log-denominator; its
        float32 gradients are within 2e-5 of the largest float64 reference
        gradient (measured at most 2.0e-6)."""
        if block:
            monkeypatch.setattr(ad, "ATTENTION_BLOCK", block)
        softmaxes = count_calls(monkeypatch, ad, "_softmax_")
        q, k, v = (Tensor(self.f32(s, seed).data, requires_grad=True) for s, seed in (((n, c), 60), ((m, c), 61), ((m, c), 62)))
        g = np.random.default_rng(63).normal(size=(n, c)).astype(np.float32)
        out = ad.attention(q, k, v, heads)
        ad.mean(out * Tensor(g)).backward()
        assert softmaxes == []
        expected = self.reference_gradients(*(t.data.astype(np.float64) for t in (q, k, v)), heads, g / g.size)
        largest = max(np.abs(e).max() for e in expected)
        for got, want in zip((q.grad, k.grad, v.grad), expected):
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= 2e-5 * largest

    def test_tape_keeps_no_logits(self):
        """A taped forward at N = M = 2048 keeps, beyond its output, one log-sum-exp
        per row and head (32 KiB); one head's logits would be 32 MiB.  On inputs
        that need no gradient it keeps nothing beyond its output."""
        n, heads = 2048, 2
        q, k, v = (Tensor(np.random.default_rng(s).normal(size=(n, 16)), requires_grad=True) for s in (64, 65, 66))
        for recording in (True, False):
            inputs = (q, k, v) if recording else untaped(q, k, v)
            tracemalloc.start()
            try:
                out = ad.attention(*inputs, heads)
                kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            finally:
                tracemalloc.stop()
            assert (out._node is not None) == recording
            assert kept < (4 * 8 * n * heads if recording else 8 * 1024), (recording, kept)

    def test_inference_memory_is_one_block(self):
        q, k, v = (np.random.default_rng(s).normal(size=(2048, 16)) for s in (53, 54, 55))
        tracemalloc.start()
        try:
            ad.attention(Tensor(q), Tensor(k), Tensor(v), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # one head's 2048 x 2048 logits alone are 32 MiB

    def test_one_tape_node(self):
        q, k = rand((3, 4), 47), rand((5, 4), 48)
        out = ad.attention(q, k, k, 2)
        assert collect_tape(out).nodes == [out._node]

    @pytest.mark.parametrize(
        "q, k, v, heads",
        [
            ((3, 4), (5, 6), (5, 6), 1),  # query and key widths differ
            ((3, 4), (5, 4), (6, 4), 1),  # key and value counts differ
            ((3, 4), (5, 4), (5, 2), 1),  # value width differs
            ((3, 4), (5, 4), (5, 4), 3),  # 3 does not divide 4
            ((3, 4), (5, 4), (5, 4), 0),  # no heads
            ((12,), (5, 4), (5, 4), 1),  # 1-d queries
            ((3, 4), (0, 4), (0, 4), 1),  # no keys: the softmax has no terms
        ],
    )
    def test_bad_shapes_and_heads_rejected(self, q, k, v, heads):
        with pytest.raises(ValueError):
            ad.attention(Tensor(np.zeros(q)), Tensor(np.zeros(k)), Tensor(np.zeros(v)), heads)


def is_topologically_ordered(tape) -> bool:
    seen: set[int] = set()
    for node in tape.nodes:
        for inp in node.inputs:
            if inp._node is not None and id(inp._node) not in seen and inp._node.seq >= node.seq:
                return False
        seen.add(id(node))
    return True


class TestTape:
    def test_topological_order(self):
        x = rand((3,), 7)
        y = ad.mean(ad.relu(x * 2.0) + ad.sigmoid(x))
        tape = collect_tape(y)
        assert is_topologically_ordered(tape)
        assert len(tape.nodes) >= 5

    def test_determinism_bitwise(self):
        def run():
            x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)
            out = ad.mean(ad.softmax_lastdim(x * 1.7) * ad.sigmoid(x))
            out.backward()
            return out.data.copy(), x.grad.copy()

        (v1, g1), (v2, g2) = run(), run()
        assert (v1 == v2).all()
        assert (g1 == g2).all()

    def test_inference_builds_no_tape(self):
        x = Tensor(np.ones((2, 2)))
        y = ad.relu(x * 2.0)
        assert y._node is None


class TestLayerNorm:
    EPS = 1e-5

    @staticmethod
    def inputs(shape, seed):
        """x with its first row constant (so sigma is sqrt(eps)) when there are
        several rows, gamma, beta, and a readout weight."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        if shape[0] > 1:
            x[0] = 0.7
        return (
            Tensor(x),
            Tensor(rng.normal(size=shape[1:])),
            Tensor(rng.normal(size=shape[1:])),
            Tensor(rng.normal(size=shape)),
        )

    def test_forward_is_the_numpy_composition(self):
        x, gamma, beta, _ = self.inputs((5, 8), 40)
        centered = x.data - x.data.mean(axis=1, keepdims=True)
        sigma = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + self.EPS)
        expected = centered / sigma * gamma.data + beta.data
        assert np.array_equal(ad.layer_norm(x, gamma, beta, self.EPS).data, expected)

    @pytest.mark.parametrize("shape", [(1, 4), (3, 3), (5, 8), (2, 5)])
    def test_gradients_match_finite_differences(self, shape):
        x, gamma, beta, w = self.inputs(shape, 41)
        eps = self.EPS
        errors = {
            "x": max_grad_error(lambda t: ad.mean(ad.layer_norm(t, gamma, beta, eps) * w), x),
            "gamma": max_grad_error(lambda t: ad.mean(ad.layer_norm(x, t, beta, eps) * w), gamma),
            "beta": max_grad_error(lambda t: ad.mean(ad.layer_norm(x, gamma, t, eps) * w), beta),
        }
        for name, err in errors.items():
            assert err < 1e-4, f"d/d{name} on shape {shape}: err {err}"

    def test_one_tape_node(self):
        x, gamma, beta, _ = self.inputs((3, 4), 42)
        gamma.requires_grad = True
        assert len(collect_tape(ad.layer_norm(x, gamma, beta, self.EPS)).nodes) == 1


class TestCharbonnierGradientLoss:
    SHAPES = [(16, 16, 3), (7, 9, 3), (6, 6, 3), (1, 5, 3), (5, 1, 3), (1, 1, 3), (3, 4, 1)]
    WEIGHTS = [(1.0, 0.5, 1e-3), (1.3, 0.7, 0.3), (0.1, 3.3, 1e-3), (0.0, 1.0, 0.3)]

    @staticmethod
    def inputs(shape, seed):
        """Prediction and target uniform on (0, 1) with full mantissas, so that their
        differences round (plain uniform draws are multiples of 2^-53 and subtract exactly)."""
        pred, target = np.exp(-np.random.default_rng(seed).exponential(size=(2,) + shape))
        return Tensor(pred, requires_grad=True), target

    @staticmethod
    def reference(pred, target, lambda1, lambda2, epsilon):
        """lambda1 * mean sqrt(d^2 + epsilon^2) plus lambda2 * the summed
        |forward difference of d| along H and W over twice the element count."""
        d = pred - target
        charbonnier = np.sqrt(d * d + epsilon * epsilon).mean()
        grad_sum = np.abs(np.diff(d, axis=0)).sum() + np.abs(np.diff(d, axis=1)).sum()
        return lambda1 * charbonnier + lambda2 * grad_sum / (2.0 * d.size)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lambda1, lambda2, epsilon", WEIGHTS)
    def test_value_is_the_numpy_formula(self, shape, lambda1, lambda2, epsilon):
        pred, target = self.inputs(shape, 50)
        got = float(ad.charbonnier_gradient_loss(pred, target, lambda1, lambda2, epsilon).data)
        assert got == pytest.approx(self.reference(pred.data, target, lambda1, lambda2, epsilon), rel=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lambda1, lambda2, epsilon", WEIGHTS)
    def test_gradient_is_the_numpy_formula(self, shape, lambda1, lambda2, epsilon):
        """lambda1 / N * d / sqrt(d^2 + epsilon^2), then lambda2 / 2N * sign(r)
        taken from the lower and given to the upper end of each difference r."""
        pred, target = self.inputs(shape, 51)
        ad.charbonnier_gradient_loss(pred, target, lambda1, lambda2, epsilon).backward()
        d = pred.data - target
        expected = lambda1 / d.size * d / np.sqrt(d * d + epsilon * epsilon)
        for axis in (0, 1):
            s = lambda2 / (2.0 * d.size) * np.sign(np.diff(d, axis=axis))
            expected[(slice(None),) * axis + (slice(None, -1),)] -= s
            expected[(slice(None),) * axis + (slice(1, None),)] += s
        assert np.allclose(pred.grad, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    # At lambda1 = 2 * lambda2 and a small epsilon, a pixel whose four forward
    # differences all oppose d has a gradient of about epsilon^2 / (2 d^2 N): the
    # image and gradient terms cancel, and central differences cannot resolve
    # the remainder to 1e-4 relative.  Those weights are checked against the
    # formula above; here they run only at the wide epsilon.
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lambda1, lambda2, epsilon", [(1.3, 0.7, 1e-3), (0.1, 3.3, 1e-3), (1.3, 0.7, 0.3), (1.0, 0.5, 0.3)])
    def test_gradient_matches_central_differences(self, shape, lambda1, lambda2, epsilon):
        pred, target = self.inputs(shape, 52)
        err = max_grad_error(lambda t: ad.charbonnier_gradient_loss(t, target, lambda1, lambda2, epsilon), pred)
        assert err < 1e-4

    def test_gradient_through_an_upstream_node(self):
        pred, target = self.inputs((4, 5, 3), 53)
        w = Tensor(np.random.default_rng(54).normal(size=(4, 5, 3)))
        err = max_grad_error(lambda t: ad.charbonnier_gradient_loss(t * w, target, 1.3, 0.7, 1e-3), pred)
        assert err < 1e-4

    @staticmethod
    def elementwise(pred, target, lambda1, lambda2, epsilon):
        """Value and gradient as a tape of elementwise nodes computes them: slices,
        |.|, sqrt and means as separate steps, the W axis recorded before the H
        axis, and the gradient pieces summed in reverse recording order."""
        diff = pred - target
        root = np.sqrt(diff * diff + epsilon * epsilon)
        grad_term, pieces = 0.0, []
        for axis in (1, 0):
            if pred.shape[axis] > 1:
                hi, lo = [slice(None)] * 3, [slice(None)] * 3
                hi[axis], lo[axis] = slice(1, None), slice(None, -1)
                hi, lo = tuple(hi), tuple(lo)
                r = (pred[hi].copy() - pred[lo].copy()) - (target[hi].copy() - target[lo].copy())
                frac = r.size / (2.0 * diff.size)
                grad_term = grad_term + np.abs(r).mean() * frac
                s = np.broadcast_to(1.0 * lambda2 * frac / r.size, r.shape) * np.sign(r)
                to_lo, to_hi = np.zeros(pred.shape), np.zeros(pred.shape)
                to_lo[lo], to_hi[hi] = -s, s
                pieces = [to_lo, to_hi] + pieces
        q = np.broadcast_to(1.0 * lambda1 / diff.size, diff.shape) * 0.5 / root
        pieces.append(q * diff + q * diff)
        grad = pieces[0]
        for piece in pieces[1:]:
            grad = grad + piece
        return root.mean() * lambda1 + grad_term * lambda2, grad

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lambda1, lambda2, epsilon", WEIGHTS)
    def test_bit_identical_to_the_elementwise_tape(self, shape, lambda1, lambda2, epsilon):
        pred, target = self.inputs(shape, 55)
        out = ad.charbonnier_gradient_loss(pred, target, lambda1, lambda2, epsilon)
        out.backward()
        value, grad = self.elementwise(pred.data, target, lambda1, lambda2, epsilon)
        assert float(out.data) == value
        assert np.array_equal(pred.grad, grad)

    def test_one_tape_node(self):
        pred, target = self.inputs((3, 4, 3), 54)
        out = ad.charbonnier_gradient_loss(pred, target, 1.0, 0.5, 1e-3)
        assert collect_tape(out).nodes == [out._node]

    @pytest.mark.parametrize("pred, target", [((4, 4, 3), (4, 5, 3)), ((4, 4), (4, 4)), ((4, 4, 3), (4, 4))])
    def test_bad_shapes_rejected(self, pred, target):
        with pytest.raises(ValueError, match="loss shape mismatch"):
            ad.charbonnier_gradient_loss(Tensor(np.zeros(pred)), np.zeros(target), 1.0, 0.5, 1e-3)


class TestUntaped:
    """Ops on tensors that need no gradient record no node and give the taped values."""

    OPS = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "matmul": lambda a, b: ad.matmul(a, ad.reshape(b, (4, 3))),
        "attention": lambda a, b: ad.attention(a, b, b * 0.5, 2),
        "softmax": lambda a, b: ad.softmax_lastdim(a * 1.7),
        "relu_sigmoid": lambda a, b: ad.relu(a) + ad.sigmoid(b),
        "loss": lambda a, b: ad.charbonnier_gradient_loss(ad.reshape(a, (3, 4, 1)), b.data.reshape(3, 4, 1), 1.0, 0.5, 0.1),
        "concat": lambda a, b: ad.concat_lastdim([a, b]),
        "reshape": lambda a, b: ad.reshape(a, (a.size,)),
        "mean": lambda a, b: ad.mean(a * -1.0),
        "row_broadcast": lambda a, b: ad.reshape(a, (3, 1, 4)) * b + b,
        "layer_norm": lambda a, b: ad.layer_norm(
            a,
            ad.reshape(ad.matmul(Tensor(np.ones((1, 3))), b), (4,)),
            ad.reshape(ad.matmul(Tensor(np.full((1, 3), 0.5)), b), (4,)),
            1e-5,
        ),
    }

    def test_records_no_node_and_same_values(self):
        a, b = rand((3, 4), 20), rand((3, 4), 21)
        for name, op in self.OPS.items():
            tracked = op(a, b)
            untracked = op(*untaped(a, b))
            assert tracked._node is not None, name
            assert untracked._node is None, name
            assert np.array_equal(tracked.data, untracked.data), name


class TestFloat32:
    """Float32 tensors stay float32 through every primitive the network's
    forward uses, python-scalar operands included; anything else is float64."""

    @staticmethod
    def f32(shape, seed):
        return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32))

    OPS = {
        "add": lambda a, b: a + b,
        "add_scalar": lambda a, b: a + 1.5,
        "mul": lambda a, b: a * b,
        "mul_scalar": lambda a, b: a * 0.3,
        "matmul": lambda a, b: ad.matmul(a, ad.reshape(b, (4, 3))),
        "reshape": lambda a, b: ad.reshape(a, (a.size,)),
        "concat_lastdim": lambda a, b: ad.concat_lastdim([a, b]),
        "relu": lambda a, b: ad.relu(a),
        "sigmoid": lambda a, b: ad.sigmoid(a),
        "layer_norm": lambda a, b: ad.layer_norm(ad.reshape(a, (1, 12)), ad.reshape(b, (12,)), ad.reshape(b, (12,)), 1e-5),
        "attention": lambda a, b: ad.attention(a, b, b * 0.5, 2),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_primitive_keeps_float32(self, name):
        assert self.OPS[name](self.f32((3, 4), 40), self.f32((3, 4), 41)).data.dtype == np.float32

    def test_attention_backward_keeps_float32(self):
        q, k, v = (Tensor(np.random.default_rng(s).normal(size=(5, 4)).astype(np.float32), requires_grad=True) for s in (42, 43, 44))
        out = ad.attention(q, k, v, 2)
        assert [g.dtype for g in out._node.backward(np.ones(out.shape, np.float32))] == [np.float32] * 3

    @pytest.mark.parametrize(
        "data",
        [np.ones(3), np.ones(3, np.float16), np.ones(3, ">f4"), np.arange(3), [1.0, 2.0], 2.0, np.float64(2.0)],
        ids=["float64", "float16", "big_endian_float32", "int", "list", "float", "numpy_float64"],
    )
    def test_anything_but_float32_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    def test_float32_kept_without_copy(self):
        data = np.ones((2, 3), np.float32)
        assert Tensor(data).data is data
        assert Tensor(np.float32(2.0)).data.dtype == np.float32
