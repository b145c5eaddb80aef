import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evseen.autodiff as ad
from conftest import count_calls, count_instantiated
from evseen.autodiff import Tensor
from evseen.bayer import BayerOrder
from evseen.events import VoxelGrid, position_embedding, voxelize
from evseen.imaging import RgbImage, brightness
from evseen.seenet import (
    CALIBRATION_CONFIG,
    BrightnessPrompt,
    SeeNetConfig,
    attention_mix,
    project_memory,
    decode,
    encode,
    encode_image,
    forward,
    forward_prompts,
    init_params,
    input_heads,
    load_params,
    loss,
    parameter_count,
    prompt_embed,
    save_params,
    train_toy,
)
from evseen import seenet
from evseen.seenet import _forward_tensor


CFG = SeeNetConfig(channels=8, heads=2, loop_count=2, voxel_bins=4, pos_dim=4, seed=1)


def toy_inputs(seed=0, h=6, w=6, cfg=CFG):
    rng = np.random.default_rng(seed)
    img = RgbImage(rng.uniform(0, 1, (h, w, 3)))
    grid = VoxelGrid(rng.normal(0, 0.5, (h, w, cfg.voxel_bins)), 0, 1)
    pos = position_embedding(w, h, BayerOrder(cfg.bayer), cfg.pos_dim)
    return img, grid, pos


def zero_params(cfg=CFG):
    params = init_params(cfg)
    for _, t in params.named_tensors():
        t.data = np.zeros_like(t.data)
    return params


class TestInputHeads:
    def test_zero_everything_gives_zero_features(self):
        params = zero_params()
        img = RgbImage(np.zeros((4, 4, 3)))
        grid = VoxelGrid(np.zeros((4, 4, CFG.voxel_bins)), 0, 1)
        pos = np.zeros((4, 4, CFG.pos_dim))
        f_e, f_i = input_heads(img, grid, pos, params)
        assert (f_e.data == 0).all()
        assert (f_i.data == 0).all()

    def test_pixel_permutation_equivariance(self):
        params = init_params(CFG)
        img, grid, pos = toy_inputs(3)
        f_e, f_i = input_heads(img, grid, pos, params)
        # swap two pixel sites in every input plane; features hold one row per pixel, row-major
        (y1, x1), (y2, x2) = (0, 0), (3, 2)
        r1, r2 = y1 * img.width + x1, y2 * img.width + x2

        def swapped(arr):
            out = arr.copy()
            out[y1, x1], out[y2, x2] = arr[y2, x2].copy(), arr[y1, x1].copy()
            return out

        f_e2, f_i2 = input_heads(
            RgbImage(swapped(img.values)),
            VoxelGrid(swapped(grid.values), 0, 1),
            swapped(pos),
            params,
        )
        assert f_e.shape == f_i.shape == (img.height * img.width, CFG.channels)
        assert np.allclose(f_e2.data[r1], f_e.data[r2])
        assert np.allclose(f_i2.data[r2], f_i.data[r1])

    def test_shape_mismatch_rejected(self):
        params = init_params(CFG)
        img, grid, pos = toy_inputs()
        with pytest.raises(ValueError):
            input_heads(img, grid, pos[:, :, :3], params)


class TestCrossAttention:
    def test_identical_kv_rows_mix_to_value_projection(self):
        params = init_params(CFG)
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(10, CFG.channels)))
        kv_row = rng.normal(size=CFG.channels)
        kv = Tensor(np.tile(kv_row, (10, 1)))
        mix = attention_mix(q, project_memory(kv, params.fuse), params.fuse, CFG.heads)
        assert np.allclose(mix.data, mix.data[0])

    def test_uniform_logits_average_values(self):
        params = init_params(CFG)
        params.fuse.wq.w.data[:] = 0.0
        params.fuse.wq.b.data[:] = 0.0
        params.fuse.wk.w.data[:] = 0.0
        params.fuse.wk.b.data[:] = 0.0
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(7, CFG.channels)))
        kv = Tensor(rng.normal(size=(7, CFG.channels)))
        mix = attention_mix(q, project_memory(kv, params.fuse), params.fuse, CFG.heads)
        from evseen.seenet import _layer_norm, _linear

        values = _linear(_layer_norm(kv, params.fuse.ln_kv), params.fuse.wv)
        assert np.allclose(mix.data, values.data.mean(axis=0)[None, :])

    def test_single_pixel_attends_to_itself(self):
        params = init_params(CFG)
        rng = np.random.default_rng(2)
        q = Tensor(rng.normal(size=(1, CFG.channels)))
        kv = Tensor(rng.normal(size=(1, CFG.channels)))
        mix = attention_mix(q, project_memory(kv, params.fuse), params.fuse, CFG.heads)
        from evseen.seenet import _layer_norm, _linear

        values = _linear(_layer_norm(kv, params.fuse.ln_kv), params.fuse.wv)
        assert np.allclose(mix.data, values.data)

    def test_non_finite_rejected(self):
        params = init_params(CFG)
        bad = Tensor(np.full((4, CFG.channels), np.nan))
        good = Tensor(np.zeros((4, CFG.channels)))
        with pytest.raises(FloatingPointError):
            encode(good, bad, CFG, params)


class TestEncode:
    def test_single_loop_equals_manual_composition(self):
        from evseen.seenet import _cross_attention

        params = init_params(CFG)
        img, grid, pos = toy_inputs(5)
        f_e, f_i = input_heads(img, grid, pos, params)
        cfg1 = SeeNetConfig(**{**CFG.__dict__, "loop_count": 1})
        out = encode(f_e, f_i, cfg1, params)
        f_1 = _cross_attention(f_i, project_memory(f_e, params.fuse), params.fuse, CFG.heads)
        a = _cross_attention(f_1, project_memory(f_e, params.loop_event), params.loop_event, CFG.heads)
        manual = _cross_attention(a, project_memory(f_1, params.loop_anchor), params.loop_anchor, CFG.heads)
        assert out.shape == (img.height * img.width, CFG.channels)
        assert (out.data == manual.data).all()

    def test_three_loops_equal_reference_unroll(self):
        from evseen.seenet import _cross_attention

        params = init_params(CFG)
        img, grid, pos = toy_inputs(6)
        f_e, f_i = input_heads(img, grid, pos, params)
        cfg3 = SeeNetConfig(**{**CFG.__dict__, "loop_count": 3})
        out = encode(f_e, f_i, cfg3, params)
        f_1 = _cross_attention(f_i, project_memory(f_e, params.fuse), params.fuse, CFG.heads)
        f_j = f_1
        for _ in range(3):  # the unrolled loop projects each memory anew in every iteration
            a = _cross_attention(f_j, project_memory(f_e, params.loop_event), params.loop_event, CFG.heads)
            f_j = _cross_attention(a, project_memory(f_1, params.loop_anchor), params.loop_anchor, CFG.heads)
        assert (out.data == f_j.data).all()

    def test_zeroed_output_projections_leave_residual_identity(self):
        params = init_params(CFG)
        for block in (params.loop_event, params.loop_anchor):
            for lin in (block.wo, block.ff2):
                lin.w.data[:] = 0.0
                lin.b.data[:] = 0.0
        img, grid, pos = toy_inputs(7)
        zero_grid = VoxelGrid(np.zeros_like(grid.values), 0, 1)
        f_e, f_i = input_heads(img, zero_grid, pos, params)
        out = encode(f_e, f_i, CFG, params)
        from evseen.seenet import _cross_attention

        f_1 = _cross_attention(f_i, project_memory(f_e, params.fuse), params.fuse, CFG.heads)
        assert (out.data == f_1.data).all()

    @pytest.mark.parametrize("loop_count", [1, 2, 5])
    def test_each_block_projects_its_memory_once(self, monkeypatch, loop_count):
        params = init_params(CFG)
        f_e, f_i = input_heads(*toy_inputs(8), params)
        calls = count_calls(monkeypatch, seenet, "project_memory")
        encode(f_e, f_i, SeeNetConfig(**{**CFG.__dict__, "loop_count": loop_count}), params)
        assert [id(call[1]) for call in calls] == [id(params.fuse), id(params.loop_event), id(params.loop_anchor)]


class TestPromptEmbed:
    def test_deterministic(self):
        params = init_params(CFG)
        a = prompt_embed(0.37, params)
        b = prompt_embed(BrightnessPrompt(0.37), params)
        assert (a.data == b.data).all()

    def test_width_matches_channels_across_configs(self):
        for c, heads in [(8, 2), (12, 3), (16, 4)]:
            cfg = SeeNetConfig(channels=c, heads=heads, voxel_bins=4, pos_dim=4)
            vec = prompt_embed(0.5, init_params(cfg))
            assert vec.shape == (c,)

    def test_zero_weights_give_zero_vector(self):
        params = zero_params()
        assert (prompt_embed(0.9, params).data == 0).all()

    def test_domain_validation(self):
        params = init_params(CFG)
        for bad in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValueError):
                prompt_embed(bad, params)


class TestDecode:
    def test_pixelwise_permutation_equivariance(self):
        params = init_params(CFG)
        rng = np.random.default_rng(4)
        feat = rng.normal(size=(12, CFG.channels))
        b_vec = prompt_embed(0.5, params)
        out = decode(Tensor(feat), b_vec, CFG, params).data
        perm = feat.copy()
        perm[0], perm[11] = feat[11].copy(), feat[0].copy()
        out_p = decode(Tensor(perm), b_vec, CFG, params).data
        assert out.shape == (12, 3)
        assert np.allclose(out_p[0], out[11])
        assert np.allclose(out_p[11], out[0])

    def test_distinct_prompts_distinct_outputs(self):
        params = init_params(CFG)
        img, grid, pos = toy_inputs(8)
        a = forward(img, grid, 0.4, CFG, params, pos)
        b = forward(img, grid, 0.6, CFG, params, pos)
        assert np.abs(a.values - b.values).max() > 1e-9

    def test_zero_everything_decodes_to_half(self):
        params = zero_params()
        feat = Tensor(np.zeros((9, CFG.channels)))
        b_vec = Tensor(np.zeros(CFG.channels))
        out = decode(feat, b_vec, CFG, params)
        assert out.shape == (9, 3)
        assert np.allclose(out.data, 0.5)

    def test_multiply_merge_mode(self):
        cfg = SeeNetConfig(**{**CFG.__dict__, "prompt_merge": "multiply"})
        params = init_params(cfg)
        img, grid, pos = toy_inputs(9, cfg=cfg)
        out = forward(img, grid, 0.5, cfg, params, pos)
        assert out.values.shape == img.values.shape


class TestLoss:
    def test_identity_equals_lambda1_epsilon(self):
        rng = np.random.default_rng(0)
        img = RgbImage(rng.uniform(0, 1, (5, 7, 3)))
        value = loss(img, img, lambda1=1.3, lambda2=0.5, epsilon=1e-3)
        assert value == pytest.approx(1.3 * 1e-3, abs=1e-12)

    def test_uniform_shift_with_zero_epsilon(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.0, 0.4, (6, 6, 3))
        a = RgbImage(base)
        b = RgbImage(base + 0.5)
        value = loss(b, a, lambda1=2.0, lambda2=0.7, epsilon=0.0)
        assert value == pytest.approx(2.0 * 0.5, abs=1e-12)

    def test_against_two_loop_oracle(self):
        rng = np.random.default_rng(2)
        h, w = 5, 6
        pred = rng.uniform(0, 1, (h, w, 3))
        target = rng.uniform(0, 1, (h, w, 3))
        l1, l2, eps = 1.0, 0.5, 1e-3

        charb = 0.0
        for y in range(h):
            for x in range(w):
                for c in range(3):
                    charb += np.sqrt((pred[y, x, c] - target[y, x, c]) ** 2 + eps**2)
        charb /= h * w * 3
        grad_sum = 0.0
        for y in range(h):
            for x in range(w):
                for c in range(3):
                    dxo = pred[y, x + 1, c] - pred[y, x, c] if x + 1 < w else 0.0
                    dxt = target[y, x + 1, c] - target[y, x, c] if x + 1 < w else 0.0
                    dyo = pred[y + 1, x, c] - pred[y, x, c] if y + 1 < h else 0.0
                    dyt = target[y + 1, x, c] - target[y, x, c] if y + 1 < h else 0.0
                    grad_sum += abs(dxo - dxt) + abs(dyo - dyt)
        expected = l1 * charb + l2 * grad_sum / (2 * h * w * 3)
        got = loss(RgbImage(pred), RgbImage(target), l1, l2, eps)
        assert got == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=25)
    @given(st.integers(0, 2**31))
    def test_lower_bound(self, seed):
        rng = np.random.default_rng(seed)
        a = RgbImage(rng.uniform(0, 1, (4, 4, 3)))
        b = RgbImage(rng.uniform(0, 1, (4, 4, 3)))
        assert loss(a, b, 1.0, 0.5, 1e-3) >= 1.0 * 1e-3 - 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss(RgbImage(np.zeros((4, 4, 3))), RgbImage(np.zeros((4, 6, 3))))

    @pytest.mark.parametrize(
        "field, value",
        [("lambda1", -1.0), ("lambda1", float("nan")), ("lambda2", -0.5), ("lambda2", float("inf")),
         ("epsilon", 0.0), ("epsilon", float("nan")), ("epsilon", float("inf"))],
    )
    def test_config_rejects_bad_loss_weights(self, field, value):
        message = "epsilon must be finite and positive" if field == "epsilon" else "lambda1 and lambda2 must be finite"
        with pytest.raises(ValueError, match=message):
            SeeNetConfig(**{field: value})

    def test_config_accepts_zero_weights(self):
        assert SeeNetConfig(lambda1=0.0, lambda2=0.0).lambda1 == 0.0


class TestForward:
    def test_output_shape_and_range(self):
        params = init_params(CFG)
        img, grid, pos = toy_inputs(10, h=5, w=9)
        out = forward(img, grid, 0.5, CFG, params)
        assert out.values.shape == (5, 9, 3)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_uniform_field_tiles(self):
        # with spatially uniform inputs the whole pipeline is constant per pixel,
        # so doubling the canvas tiles the output (attention caveat: uniformity)
        params = init_params(CFG)
        rng = np.random.default_rng(11)
        pix = rng.uniform(0.2, 0.8, 3)
        vox = rng.normal(size=CFG.voxel_bins)
        pos_row = rng.uniform(0, 1, CFG.pos_dim)

        def run(h, w):
            img = RgbImage(np.tile(pix, (h, w, 1)))
            grid = VoxelGrid(np.tile(vox, (h, w, 1)), 0, 1)
            pos = np.tile(pos_row, (h, w, 1))
            return forward(img, grid, 0.5, CFG, params, pos)

        small = run(3, 4)
        big = run(6, 8)
        assert np.allclose(small.values[0, 0], big.values[0, 0], atol=1e-12)
        assert np.allclose(big.values, big.values[0, 0][None, None, :], atol=1e-12)

    def test_checkpoint_replay_bit_identical(self, tmp_path):
        params = init_params(CFG)
        img, grid, pos = toy_inputs(12)
        path = tmp_path / "model.evck"
        save_params(params, CFG, path)
        p1, c1 = load_params(path)
        p2, c2 = load_params(path)
        assert c1 == c2 == CFG
        a = forward(img, grid, 0.5, c1, p1, pos)
        b = forward(img, grid, 0.5, c2, p2, pos)
        assert (a.values == b.values).all()


class TestForwardPrompts:
    PROMPTS = [0.3, 0.45, 0.5, 0.7]

    def test_matches_per_prompt_tracked_forward(self):
        """The float32 forward stays within 1e-5 of the float64 taped one, a
        390th of an 8-bit level; 40 seeds of this config measured at most 3.5e-7."""
        params = init_params(CFG)
        img, grid, pos = toy_inputs(13, h=5, w=7)
        outs = forward_prompts(img, grid, self.PROMPTS, CFG, params, pos)
        assert len(outs) == len(self.PROMPTS)
        for p, out in zip(self.PROMPTS, outs):
            assert np.abs(out.values - _forward_tensor(img, grid, p, CFG, params, pos).data).max() < 1e-5

    def test_float32_inside_float64_outside(self, monkeypatch):
        """Every tensor ``forward_prompts`` makes is float32 and its images are
        float64; a taped forward and a training step make only float64."""
        made = []
        init = Tensor.__init__

        def recording(self, data, requires_grad=False):
            init(self, data, requires_grad)
            made.append(self.data.dtype)

        params = init_params(CFG)
        img, grid, pos = toy_inputs(19)
        monkeypatch.setattr(Tensor, "__init__", recording)
        outs = forward_prompts(img, grid, self.PROMPTS, CFG, params, pos)
        assert made and set(made) == {np.dtype(np.float32)}
        assert {out.values.dtype for out in outs} == {np.dtype(np.float64)}
        made.clear()
        _forward_tensor(img, grid, 0.5, CFG, params, pos)
        assert made and set(made) == {np.dtype(np.float64)}
        made.clear()
        from evseen.pairing import enumerate_pairs, synth_scene

        pair_set = enumerate_pairs(synth_scene(2, lighting_scales=(0.5, 1.0), width=8, height=8, frames=2))
        trained, _ = train_toy(pair_set, CFG, steps=1, lr=0.05)
        assert made and set(made) == {np.dtype(np.float64)}
        assert {t.grad.dtype for _, t in trained.named_tensors()} == {np.dtype(np.float64)}

    def test_outputs_pinned_to_the_byte(self):
        """The float32 inference images for a seeded toy input at three prompts
        have this SHA-256 (numpy 2.4 with OpenBLAS 0.3.31 on x86-64; another BLAS
        kernel may round its matmuls differently)."""
        params = init_params(CFG)
        img, grid, pos = toy_inputs(21, h=7, w=9)
        digest = hashlib.sha256()
        for out in forward_prompts(img, grid, [0.3, 0.5, 0.7], CFG, params, pos):
            digest.update(out.values.tobytes())
        assert digest.hexdigest() == "c32fa682f0fd9a42fa4d96426dcae97a613daea33f9584404a1854c22560912f"

    def test_leaves_the_callers_parameters_alone(self):
        params = init_params(CFG)
        before = [(t, t.data.copy()) for _, t in params.named_tensors()]
        img, grid, pos = toy_inputs(20)
        forward_prompts(img, grid, self.PROMPTS, CFG, params, pos)
        after = [t for _, t in params.named_tensors()]
        assert [t for t, _ in before] == after
        for t, data in before:
            assert t.data.dtype == np.float64 and np.array_equal(t.data, data)

    def test_default_position_feature(self):
        params = init_params(CFG)
        img, grid, pos = toy_inputs(14)
        assert np.array_equal(
            encode_image(img, grid, CFG, params).data,
            encode_image(img, grid, CFG, params, pos).data,
        )

    def test_encodes_once_and_records_no_tape(self, monkeypatch):
        calls = count_calls(monkeypatch, seenet, "encode")
        params = init_params(CFG)
        img, grid, pos = toy_inputs(15)
        before = next(ad._SEQ)
        forward_prompts(img, grid, self.PROMPTS, CFG, params, pos)
        assert next(ad._SEQ) == before + 1  # no _Node drew a sequence number
        assert len(calls) == 1

    def test_bad_prompt_rejected_before_encoding(self, monkeypatch):
        calls = count_calls(monkeypatch, seenet, "encode")
        params = init_params(CFG)
        img, grid, pos = toy_inputs(16)
        with pytest.raises(ValueError):
            forward_prompts(img, grid, [0.5, 1.5], CFG, params, pos)
        assert calls == []


class TestTape:
    def test_train_step_freed_by_reference_counting(self, monkeypatch):
        """With the cyclic collector off, dropping a step's loss frees its tape:
        every attention output array dies with it."""
        weights = []
        attention = ad.attention

        def recording(q, k, v, heads):
            out = attention(q, k, v, heads)
            weights.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ad, "attention", recording)
        params = init_params(CFG)
        img, grid, pos = toy_inputs(17)
        target = np.random.default_rng(17).uniform(0, 1, img.values.shape)
        enabled = gc.isenabled()
        gc.disable()
        try:
            step_loss = ad.charbonnier_gradient_loss(_forward_tensor(img, grid, 0.5, CFG, params, pos), target, 1.0, 0.5, 1e-3)
            step_loss.backward()
            alive_after_backward = sum(w() is not None for w in weights)
            del step_loss
            alive_after_drop = sum(w() is not None for w in weights)
        finally:
            if enabled:
                gc.enable()
        assert alive_after_backward == len(weights) == 1 + 2 * CFG.loop_count
        assert alive_after_drop == 0

    def test_toy_forward_records_under_200_nodes(self):
        """Features stay (H*W, C) from the heads to the decoder: the only reshapes
        are the prompt embedding's (1, C) -> (C,) and the prediction's (H*W, 3) -> (H, W, 3)."""
        cfg = SeeNetConfig()
        img, grid, pos = toy_inputs(18, h=16, w=16, cfg=cfg)
        pred = _forward_tensor(img, grid, 0.5, cfg, init_params(cfg), pos)
        nodes = ad.collect_tape(pred).nodes
        assert len(nodes) == 188
        assert sum(n.backward.__qualname__.startswith("reshape.") for n in nodes) == 2

    def test_taped_step_adds_one_node_for_the_loss(self):
        cfg = SeeNetConfig()
        img, grid, pos = toy_inputs(18, h=16, w=16, cfg=cfg)
        pred = _forward_tensor(img, grid, 0.5, cfg, init_params(cfg), pos)
        target = np.random.default_rng(18).uniform(0, 1, img.values.shape)
        step_loss = ad.charbonnier_gradient_loss(pred, target, cfg.lambda1, cfg.lambda2, cfg.epsilon)
        assert len(ad.collect_tape(step_loss).nodes) == len(ad.collect_tape(pred).nodes) + 1


class TestTraining:
    def test_overfit_single_pair(self):
        from evseen.pairing import PairSet, synth_scene

        recordings = synth_scene(3, lighting_scales=(0.35, 1.0), width=16, height=16, frames=2)
        for rec in recordings:
            rec.frames = rec.frames[:1]  # exactly one training sample
        single = PairSet(recordings, [(0, 1)])
        _, losses = train_toy(single, SeeNetConfig(seed=2), steps=500, lr=0.15)
        assert losses[-1] < 0.5 * losses[0]

    def test_zero_learning_rate_flat_curve(self):
        from evseen.pairing import enumerate_pairs, synth_scene

        recordings = synth_scene(1, lighting_scales=(0.6, 1.0), width=16, height=16, frames=3)
        pair_set = enumerate_pairs(recordings)
        _, losses = train_toy(pair_set, SeeNetConfig(seed=3), steps=6, lr=0.0)
        per_sample = {}
        for i, value in enumerate(losses):
            per_sample.setdefault(i % len(pair_set.frame_pairs()), set()).add(value)
        assert all(len(v) == 1 for v in per_sample.values())

    def test_seeded_determinism(self):
        from evseen.pairing import enumerate_pairs, synth_scene

        recordings = synth_scene(2, lighting_scales=(0.5, 1.0), width=16, height=16, frames=2)
        pair_set = enumerate_pairs(recordings)
        _, l1 = train_toy(pair_set, SeeNetConfig(seed=5), steps=8, lr=0.05)
        _, l2 = train_toy(pair_set, SeeNetConfig(seed=5), steps=8, lr=0.05)
        assert l1 == l2

    FIVE_STEP_LOSSES = [0.211279246937726, 0.12677955219630113, 0.14998776092989366, 0.11260961852360359, 0.1423906776902898]
    # the same run when the attention backward recomputed each full softmax
    # (before the saved log-sum-exp): steps 4 and 5 differ in the last bits
    FULL_SOFTMAX_BACKWARD_LOSSES = [0.211279246937726, 0.12677955219630113, 0.14998776092989366, 0.11260961852360367, 0.14239067769028974]

    @staticmethod
    def five_steps():
        from evseen.pairing import enumerate_pairs, synth_scene

        pair_set = enumerate_pairs(synth_scene(2, lighting_scales=(0.5, 1.0), width=16, height=16, frames=2))
        return train_toy(pair_set, SeeNetConfig(seed=5), steps=5, lr=0.05)

    def test_five_steps_bit_identical_to_the_float64_release(self):
        """Training stays float64: five steps give these losses and this SHA-256
        of every parameter's bytes (numpy 2.4 with OpenBLAS 0.3.31 on x86-64;
        another BLAS kernel may round its matmuls differently).  Each loss agrees
        within 3e-17 with the plain-numpy float64 reference loss at that step's
        parameters."""
        params, losses = self.five_steps()
        assert losses == self.FIVE_STEP_LOSSES
        digest = hashlib.sha256()
        for _, t in params.named_tensors():
            digest.update(t.data.tobytes())
        assert digest.hexdigest() == "92daf7247a42478800a4c67f3bdfe410fe8d15dfeabeb3c286136ac9a4a9c980"

    def test_five_steps_within_1e_15_of_the_full_softmax_backward(self):
        """The saved log-sum-exp and FlashAttention-2's D round the attention
        gradients differently, never by more than 1e-15 in these losses."""
        _, losses = self.five_steps()
        assert np.abs(np.subtract(losses, self.FULL_SOFTMAX_BACKWARD_LOSSES)).max() <= 1e-15

    def test_empty_dataset_rejected(self):
        from evseen.pairing import PairSet

        with pytest.raises(ValueError):
            train_toy(PairSet([], []), SeeNetConfig(), 5, 0.1)

    def test_loop_ablation_direction(self):
        from evseen.pairing import enumerate_pairs, synth_scene

        recordings = synth_scene(4, lighting_scales=(0.35, 1.0), width=12, height=12, frames=4)
        pair_set = enumerate_pairs(recordings)
        finals = {}
        for loops in (1, 4):
            cfg = SeeNetConfig(loop_count=loops, seed=7)
            _, losses = train_toy(pair_set, cfg, steps=120, lr=0.05)
            finals[loops] = np.mean(losses[-8:])
        assert finals[4] <= finals[1]

    def test_prompt_monotonic_influence(self, toy_training):
        recordings, pair_set, config, params, _ = toy_training
        low = recordings[0]
        ev = low.events
        grid = voxelize(ev, config.voxel_bins, int(ev.ts.min()), int(ev.ts.max()))
        outs = [
            brightness(forward(low.frames[0], grid, b, config, params))
            for b in (0.3, 0.4, 0.5, 0.6, 0.7)
        ]
        assert all(outs[i] < outs[i + 1] for i in range(4))


class TestParameterCount:
    def test_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            heads = int(rng.choice([1, 2, 4]))
            cfg = SeeNetConfig(
                channels=heads * int(rng.integers(2, 9)),
                heads=heads,
                loop_count=int(rng.integers(1, 5)),
                decoder_layers=int(rng.integers(2, 7)),
                voxel_bins=int(rng.integers(1, 12)),
                pos_dim=int(rng.integers(3, 12)),
            )
            assert parameter_count(cfg) == count_instantiated(init_params(cfg))

    def test_doubling_channels_closed_form(self):
        cfg = SeeNetConfig(channels=16, heads=2)
        cfg2 = SeeNetConfig(channels=32, heads=2)
        assert parameter_count(cfg2) == count_instantiated(init_params(cfg2))
        # attention-weight share scales exactly with the closed form
        assert parameter_count(cfg2) > 3.5 * parameter_count(cfg)

    def test_calibration_config_target(self):
        total = parameter_count(CALIBRATION_CONFIG)
        assert 1_800_000 <= total <= 2_000_000
        assert parameter_count(CALIBRATION_CONFIG) == count_instantiated(
            init_params(CALIBRATION_CONFIG)
        )

    def test_count_independent_of_loop_count(self):
        a = SeeNetConfig(loop_count=1)
        b = SeeNetConfig(loop_count=20)
        assert parameter_count(a) == parameter_count(b)

    def test_weight_sharing_single_loop_block(self, tmp_path):
        # the serialized parameter set contains exactly one pair of loop blocks
        params = init_params(CFG)
        path = tmp_path / "m.evck"
        save_params(params, CFG, path)
        from evseen.formats import load_checkpoint

        arrays, _ = load_checkpoint(path)
        loop_names = {n.split(".")[0] for n in arrays if n.startswith("loop_")}
        assert loop_names == {"loop_event", "loop_anchor"}


# the EVCK checkpoint layout: parameter names in file order for the default config
TOY_LAYOUT = """
head_event_1.w head_event_1.b head_event_2.w head_event_2.b
head_image_1.w head_image_1.b head_image_2.w head_image_2.b
fuse.ln_q.gamma fuse.ln_q.beta fuse.ln_kv.gamma fuse.ln_kv.beta
fuse.wq.w fuse.wq.b fuse.wk.w fuse.wk.b fuse.wv.w fuse.wv.b fuse.wo.w fuse.wo.b
fuse.ln_ff.gamma fuse.ln_ff.beta fuse.ff1.w fuse.ff1.b fuse.ff2.w fuse.ff2.b
loop_event.ln_q.gamma loop_event.ln_q.beta loop_event.ln_kv.gamma loop_event.ln_kv.beta
loop_event.wq.w loop_event.wq.b loop_event.wk.w loop_event.wk.b
loop_event.wv.w loop_event.wv.b loop_event.wo.w loop_event.wo.b
loop_event.ln_ff.gamma loop_event.ln_ff.beta loop_event.ff1.w loop_event.ff1.b loop_event.ff2.w loop_event.ff2.b
loop_anchor.ln_q.gamma loop_anchor.ln_q.beta loop_anchor.ln_kv.gamma loop_anchor.ln_kv.beta
loop_anchor.wq.w loop_anchor.wq.b loop_anchor.wk.w loop_anchor.wk.b
loop_anchor.wv.w loop_anchor.wv.b loop_anchor.wo.w loop_anchor.wo.b
loop_anchor.ln_ff.gamma loop_anchor.ln_ff.beta loop_anchor.ff1.w loop_anchor.ff1.b loop_anchor.ff2.w loop_anchor.ff2.b
prompt_in.w prompt_in.b prompt_out.w prompt_out.b
decoder.0.w decoder.0.b decoder.1.w decoder.1.b decoder.2.w decoder.2.b decoder.3.w decoder.3.b decoder.4.w decoder.4.b
""".split()


class TestCheckpointLayout:
    def test_toy_names_in_file_order(self, tmp_path):
        params = init_params(SeeNetConfig())
        assert [name for name, _ in params.named_tensors()] == TOY_LAYOUT
        path = tmp_path / "toy.evck"
        save_params(params, SeeNetConfig(), path)
        from evseen.formats import load_checkpoint

        assert list(load_checkpoint(path)[0]) == TOY_LAYOUT


class TestEndToEndGradient:
    def test_small_config_gradients(self):
        from evseen.seenet import end_to_end_grad_errors

        cfg = SeeNetConfig(channels=4, heads=2, loop_count=1, voxel_bins=2, pos_dim=3, seed=0)
        errors = end_to_end_grad_errors(cfg, height=4, width=4)
        assert max(errors.values()) < 1e-3
