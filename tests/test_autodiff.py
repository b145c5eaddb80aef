import numpy as np
import pytest

import evseen.autodiff as ad
from evseen.autodiff import Tensor, collect_tape, grad_check, max_grad_error


def rand(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


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
        assert np.allclose((1.0 - x).data, [0.0, 3.0])


class TestGradCheck:
    PRIMITIVE_CASES = None  # built lazily below

    def test_sum_of_squares(self):
        assert grad_check(lambda t: ad.mean(t * t), rand((3, 4), 1), h=1e-4, tol=1e-6)

    def test_charbonnier_vs_zero_target(self):
        assert grad_check(lambda t: ad.mean(ad.sqrt(t * t + 1e-6)), rand((4, 4), 2), tol=1e-4)

    def test_wrong_backward_fails(self):
        def broken(t):
            out = ad._make(t.data * 2.0, (t,), lambda g: (g * 3.0,))
            return ad.mean(out)

        assert not grad_check(broken, rand((3,), 3))

    def test_every_primitive_on_seeded_shapes(self):
        rng = np.random.default_rng(100)
        shapes = [(3,), (4, 2), (2, 3), (5,), (3, 3), (1, 4), (6,), (2, 2), (4, 4), (2, 5)]
        for i, shape in enumerate(shapes):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            w = Tensor(rng.normal(size=shape))
            cases = {
                "add": lambda t: ad.mean((t + w) * w),
                "sub": lambda t: ad.mean((t - w) * w),
                "mul": lambda t: ad.mean(t * w),
                "relu": lambda t: ad.mean(ad.relu(t) * w),
                "sigmoid": lambda t: ad.mean(ad.sigmoid(t) * w),
                "softmax": lambda t: ad.mean(ad.softmax_lastdim(t) * w),
                "abs": lambda t: ad.mean(ad.absolute(t) * w),
                "sqrt": lambda t: ad.mean(ad.sqrt(t * t + 0.1)),
                "mean": lambda t: ad.mean(t) * 2.0,
                "reshape": lambda t: ad.mean(ad.reshape(t, (t.size,)) * ad.reshape(w, (w.size,))),
                "concat_slice": lambda t: ad.mean(
                    ad.concat_lastdim(
                        [
                            ad.slice_axis(t, t.data.ndim - 1, 0, 1),
                            ad.slice_axis(t, t.data.ndim - 1, 1, t.shape[-1]),
                        ]
                    )
                    * w
                ),
                "scalar": lambda t: ad.mean(t * 3.0 + 1.5),
            }
            # t broadcast along a new leading axis: a (C,) row over (3, C) for 1-d shapes
            big = Tensor(rng.normal(size=(3,) + shape))
            cases["bcast_add"] = lambda t: ad.mean((t + big) * big)
            cases["bcast_sub"] = lambda t: ad.mean((big - t) * big)
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

    @pytest.mark.parametrize("n, m, c, heads", [(5, 5, 4, 1), (5, 7, 4, 2), (6, 3, 4, 4), (1, 9, 6, 3), (16, 16, 16, 2)])
    def test_forward_equals_per_head_reference(self, n, m, c, heads):
        q, k, v = rand((n, c), 40), rand((m, c), 41), rand((m, c), 42)
        out = ad.attention(q, k, v, heads)
        assert np.array_equal(out.data, self.reference(q.data, k.data, v.data, heads))
        with ad.no_grad():
            assert np.array_equal(ad.attention(q, k, v, heads).data, out.data)

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
        ],
    )
    def test_bad_shapes_and_heads_rejected(self, q, k, v, heads):
        with pytest.raises(ValueError):
            ad.attention(Tensor(np.zeros(q)), Tensor(np.zeros(k)), Tensor(np.zeros(v)), heads)


class TestTape:
    def test_topological_order(self):
        x = rand((3,), 7)
        y = ad.mean(ad.relu(x * 2.0) + ad.sigmoid(x))
        tape = collect_tape(y)
        assert tape.is_topologically_ordered()
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


class TestNoGrad:
    OPS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "matmul": lambda a, b: ad.matmul(a, ad.reshape(b, (4, 3))),
        "attention": lambda a, b: ad.attention(a, b, b * 0.5, 2),
        "softmax": lambda a, b: ad.softmax_lastdim(a * 1.7),
        "relu_sigmoid": lambda a, b: ad.relu(a) + ad.sigmoid(b),
        "sqrt": lambda a, b: ad.sqrt(a * a + 0.1),
        "concat_slice": lambda a, b: ad.concat_lastdim([ad.slice_axis(a, 1, 0, 2), ad.slice_axis(b, 1, 2, 4)]),
        "reshape": lambda a, b: ad.reshape(a, (a.size,)),
        "mean": lambda a, b: ad.mean(-a),
        "row_broadcast": lambda a, b: ad.reshape(a, (3, 1, 4)) * b - b,
        "layer_norm": lambda a, b: ad.layer_norm(
            a, ad.reshape(ad.slice_axis(b, 0, 0, 1), (4,)), ad.reshape(ad.slice_axis(b, 0, 1, 2), (4,)), 1e-5
        ),
    }

    def test_records_no_node_and_same_values(self):
        a, b = rand((3, 4), 20), rand((3, 4), 21)
        for name, op in self.OPS.items():
            tracked = op(a, b)
            with ad.no_grad():
                untracked = op(a, b)
            assert tracked._node is not None, name
            assert untracked._node is None, name
            assert np.array_equal(tracked.data, untracked.data), name

    def test_switch_restored_after_exception(self):
        x = rand((2,), 22)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("boom")
        assert (x * 2.0)._node is not None

    def test_nested_blocks(self):
        x = rand((2,), 23)
        with ad.no_grad():
            with ad.no_grad():
                assert (x * 2.0)._node is None
            assert (x * 2.0)._node is None
        assert (x * 2.0)._node is not None

    def test_grad_check_passes_after_block(self):
        x = rand((3, 3), 24)
        with ad.no_grad():
            ad.mean(ad.softmax_lastdim(x) * x)
        assert max_grad_error(lambda t: ad.mean(ad.softmax_lastdim(t) * t), x) < 1e-6
