"""Tests of the benchmark's independent references.

    PYTHONPATH=src python -m pytest -q benchmark/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


# --------------------------------------------------------------------------- event counter


def test_event_counter_on_log_ramp():
    # log level rises by 0.1 * sqrt(2) per frame, threshold 0.05: the cumulative
    # count after frame f is floor(2 sqrt(2) f), never on a tie
    frames = 12
    logs = (np.arange(frames) * 0.1 * math.sqrt(2)).reshape(-1, 1, 1)
    pos, neg = ref.event_counts(logs, 0.05)
    expected = np.floor(np.arange(frames) * 2 * math.sqrt(2)).astype(int)
    assert pos[:, 0, 0].tolist() == np.diff(expected, prepend=0).tolist()
    assert not neg.any()


def test_event_counter_falling_ramp_and_residual_carry():
    # 0.75 then 0.30 more: 2 events (0.25 carried over), then 1 event
    logs = np.array([0.0, -0.75, -1.05]).reshape(-1, 1, 1)
    pos, neg = ref.event_counts(logs, 0.3)
    assert neg[:, 0, 0].tolist() == [0, 2, 1]
    assert not pos.any()


def test_event_counter_constant_is_silent():
    pos, neg = ref.event_counts(np.full((5, 3, 4), -0.2), 0.05)
    assert not pos.any() and not neg.any()


# --------------------------------------------------------------------------- closed-form displacement


def _pixel_mean(angle_deg, tx, ty, width, height, sub=1):
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    offsets = (np.arange(sub) + 0.5) / sub - 0.5
    xs = (np.arange(width)[:, None] + offsets[None, :]).reshape(-1)
    ys = (np.arange(height)[:, None] + offsets[None, :]).reshape(-1)
    x, y = np.meshgrid(xs - cx, ys - cy)
    dx = c * x - s * y + tx - x
    dy = s * x + c * y + ty - y
    return float(np.hypot(dx, dy).mean())


def test_translation_moves_every_point_by_its_length():
    assert ref.rotation_mean_displacement(0.0, 3.0, -4.0, 40, 30) == 5.0


@pytest.mark.parametrize(
    "angle, tx, ty, width, height",
    [(1.0, 3.0, -2.0, 128, 128), (-2.0, 0.0, 0.0, 128, 96), (1.5, 50.0, 10.0, 64, 64), (3.0, -1.0, 2.0, 7, 5)],
)
def test_closed_form_matches_dense_sampling(angle, tx, ty, width, height):
    # the closed form averages over the pixel area; 8x8 samples per pixel approach it
    dense = _pixel_mean(angle, tx, ty, width, height, sub=8)
    assert ref.rotation_mean_displacement(angle, tx, ty, width, height) == pytest.approx(dense, rel=1e-4)


def test_closed_form_close_to_pixel_centres():
    centres = _pixel_mean(1.5, 2.5, -3.0, 128, 128)
    assert abs(ref.rotation_mean_displacement(1.5, 2.5, -3.0, 128, 128) - centres) < 1e-3


# --------------------------------------------------------------------------- network reference


def _params(rng, config, c=8):
    """Random parameters under the network's naming, for the given width."""
    p = {}

    def lin(name, n_in, n_out):
        p[f"{name}.w"] = rng.normal(0, 1 / math.sqrt(n_in), (n_in, n_out))
        p[f"{name}.b"] = rng.normal(0, 0.1, n_out)

    lin("head_event_1", config["voxel_bins"] + config["pos_dim"], c)
    lin("head_event_2", c, c)
    lin("head_image_1", 3 + config["pos_dim"], c)
    lin("head_image_2", c, c)
    for block in ("fuse", "loop_event", "loop_anchor"):
        for ln in ("ln_q", "ln_kv", "ln_ff"):
            p[f"{block}.{ln}.gamma"] = 1.0 + rng.normal(0, 0.1, c)
            p[f"{block}.{ln}.beta"] = rng.normal(0, 0.1, c)
        for name in ("wq", "wk", "wv", "wo"):
            lin(f"{block}.{name}", c, c)
        lin(f"{block}.ff1", c, 2 * c)
        lin(f"{block}.ff2", 2 * c, c)
    lin("prompt_in", 1, c)
    lin("prompt_out", c + 1, c)
    for i in range(3):
        lin(f"decoder.{i}", c, c)
    lin("decoder.3", c, 3)
    return p


CONFIG = {"heads": 2, "loop_count": 2, "prompt_merge": "add", "bayer": "RGGB", "pos_dim": 5, "voxel_bins": 3}


def test_forward_is_a_valid_image_and_depends_on_the_prompt():
    rng = np.random.default_rng(0)
    params = _params(rng, CONFIG)
    image = rng.uniform(0, 1, (6, 4, 3))
    voxels = rng.normal(0, 1, (6, 4, 3))
    low = ref.forward(image, voxels, 0.2, params, CONFIG)
    high = ref.forward(image, voxels, 0.8, params, CONFIG)
    assert low.shape == (6, 4, 3)
    assert np.all((low > 0) & (low < 1))
    assert not np.allclose(low, high)


def test_attention_over_identical_keys_returns_the_value():
    # one distinct key/value row: softmax weights are uniform, every query gets v
    rng = np.random.default_rng(1)
    params = _params(rng, CONFIG)
    query = rng.normal(0, 1, (5, 8))
    kv = np.tile(rng.normal(0, 1, (1, 8)), (7, 1))
    out = ref._block(query, kv, params, "fuse", 2)
    one = ref._block(query, kv[:1], params, "fuse", 2)
    assert np.allclose(out, one, atol=1e-12)


def test_loss_floor_is_lambda1_epsilon():
    img = np.random.default_rng(2).uniform(0, 1, (5, 7, 3))
    assert ref.training_loss(img, img, 1.5, 0.5, 1e-3) == pytest.approx(1.5e-3, rel=1e-12)


def test_loss_gradient_term_counts_both_axes():
    pred = np.zeros((2, 2, 1))
    target = np.zeros((2, 2, 1))
    pred[0, 0, 0] = 1.0  # differs from its right and lower neighbour by 1
    charbonnier = (math.sqrt(1 + 1e-6) + 3e-3) / 4
    assert ref.training_loss(pred, target, 1.0, 1.0, 1e-3) == pytest.approx(charbonnier + 2 / 8, rel=1e-12)


def test_position_feature_channels():
    pos = ref.position_feature(4, 3, "GRBG", 7)
    assert pos[0, 3, 0] == 1.0 and pos[2, 0, 1] == 1.0
    # GRBG: greens take slots 1 and 2 in reading order, R is 0, B is 3
    assert (pos[:2, :2, 2] * 3).tolist() == [[1.0, 0.0], [3.0, 2.0]]
    assert pos[0, 0, 3:].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_voxel_grid_conserves_polarity_mass():
    rng = np.random.default_rng(3)
    n = 200
    xs, ys = rng.integers(0, 5, n), rng.integers(0, 4, n)
    ts = rng.integers(100, 900, n)
    ps = rng.choice([-1, 1], n)
    grid = ref.voxel_grid(5, 4, xs, ys, ts, ps, 6)
    assert grid.sum() == pytest.approx(ps.sum(), abs=1e-9)
    first = int(np.argmin(ts))
    single = ref.voxel_grid(5, 4, xs[[first]], ys[[first]], ts[[first]], ps[[first]], 6)
    assert single[ys[first], xs[first], 0] == ps[first]
