"""Independent computations the benchmark checks the program against.

Everything here is written from the method's description with plain numpy:
no ``evseen`` import, no autodiff tape.  The file readers parse the on-disk
layouts themselves, so a check built on them also covers the program's writers.
"""

from __future__ import annotations

import ast
import math
import struct
from pathlib import Path

import numpy as np

LAYER_NORM_EPS = 1e-5


# --------------------------------------------------------------------------- files


def read_ppm(path) -> np.ndarray:
    """Binary P6 with maxval 255, no comments: (H, W, 3) uint8."""
    raw = Path(path).read_bytes()
    fields = raw.split(maxsplit=4)
    if fields[0] != b"P6" or int(fields[3]) != 255:
        raise ValueError(f"{path}: not a maxval-255 P6 file")
    width, height = int(fields[1]), int(fields[2])
    payload = raw[len(raw) - width * height * 3 :]
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def read_evt0(path) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(width, height, xs, ys, ts, ps) from an EVT0 file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"EVT0":
        raise ValueError(f"{path}: bad EVT0 magic")
    width, height, count = struct.unpack("<HHQ", raw[4:16])
    rec = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<i8"), ("p", "i1")])
    r = np.frombuffer(raw[16:], dtype=rec, count=count)
    return width, height, r["x"].astype(np.int64), r["y"].astype(np.int64), r["t"].astype(np.int64), r["p"].astype(np.int64)


def _evsf(blob: bytes) -> np.ndarray:
    if blob[:4] != b"EVSF":
        raise ValueError("bad EVSF magic")
    ndim = struct.unpack("<I", blob[4:8])[0]
    dims = struct.unpack(f"<{ndim}I", blob[8 : 8 + 4 * ndim])
    count = int(np.prod(dims))
    data = np.frombuffer(blob[8 + 4 * ndim :], dtype="<f4", count=count)
    return data.astype(np.float64).reshape(dims)


def read_evck(path) -> tuple[dict[str, np.ndarray], dict]:
    """(parameters by name, config dict) from an EVCK checkpoint."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"EVCK":
        raise ValueError(f"{path}: bad checkpoint magic")
    cfg_len = struct.unpack("<I", raw[4:8])[0]
    config = {}
    for line in raw[8 : 8 + cfg_len].decode("utf-8").splitlines():
        if line:
            key, _, value = line.partition("=")
            config[key] = ast.literal_eval(value)
    pos = 8 + cfg_len
    count = struct.unpack("<I", raw[pos : pos + 4])[0]
    pos += 4
    index = []
    for _ in range(count):
        n = struct.unpack("<H", raw[pos : pos + 2])[0]
        name = raw[pos + 2 : pos + 2 + n].decode("utf-8")
        offset = struct.unpack("<Q", raw[pos + 2 + n : pos + 10 + n])[0]
        index.append((name, offset))
        pos += 10 + n
    ends = [off for _, off in index[1:]] + [len(raw)]
    return {name: _evsf(raw[off:end]) for (name, off), end in zip(index, ends)}, config


# --------------------------------------------------------------------------- network inputs


_SLOT = {"R": [0], "B": [3], "G": [1, 2]}


def position_feature(width: int, height: int, bayer: str, dim: int) -> np.ndarray:
    """x/(W-1), y/(H-1), Bayer filter index / 3, then sin/cos of the normalised
    coordinates at frequencies pi * 2^(k // 4), cycling sin u, sin v, cos u, cos v."""
    out = np.zeros((height, width, dim))
    u = np.arange(width) / max(width - 1, 1)
    v = np.arange(height) / max(height - 1, 1)
    out[..., 0] = u[None, :]
    out[..., 1] = v[:, None]
    greens = iter(_SLOT["G"])
    slots = [_SLOT[c][0] if c != "G" else next(greens) for c in bayer]
    for y in range(height):
        for x in range(width):
            out[y, x, 2] = slots[2 * (y % 2) + (x % 2)] / 3.0
    for k in range(dim - 3):
        omega = math.pi * 2 ** (k // 4)
        wave = (np.sin, np.sin, np.cos, np.cos)[k % 4]
        coord = (u[None, :], v[:, None], u[None, :], v[:, None])[k % 4]
        out[..., 3 + k] = wave(omega * coord) * np.ones((height, width))
    return out


def voxel_grid(width, height, xs, ys, ts, ps, bins: int) -> np.ndarray:
    """Event-by-event linear binning over the stream's own time span
    [min t, max(max t, min t + 1)], bin centres evenly spaced over it."""
    grid = np.zeros((height, width, bins))
    if len(ts) == 0:
        return grid
    t0 = int(ts.min())
    t1 = max(int(ts.max()), t0 + 1)
    for x, y, t, p in zip(xs, ys, ts, ps):
        if bins == 1:
            grid[y, x, 0] += p
            continue
        tau = min(max((t - t0) * (bins - 1) / (t1 - t0), 0.0), bins - 1)
        lo = min(int(math.floor(tau)), bins - 2)
        frac = tau - lo
        grid[y, x, lo] += p * (1.0 - frac)
        grid[y, x, lo + 1] += p * frac
    return grid


# --------------------------------------------------------------------------- network


def _linear(x, params, name):
    return x @ params[f"{name}.w"] + params[f"{name}.b"]


def _layer_norm(x, params, name):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LAYER_NORM_EPS) * params[f"{name}.gamma"] + params[f"{name}.beta"]


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _block(query, kv, params, name, heads):
    """Pre-LN cross-attention: x = q + Wo(MHA(LN q, LN kv)); out = x + FF(LN x)."""
    qn = _layer_norm(query, params, f"{name}.ln_q")
    kn = _layer_norm(kv, params, f"{name}.ln_kv")
    n, c = query.shape
    d = c // heads
    q = _linear(qn, params, f"{name}.wq").reshape(n, heads, d).transpose(1, 0, 2)
    k = _linear(kn, params, f"{name}.wk").reshape(-1, heads, d).transpose(1, 0, 2)
    v = _linear(kn, params, f"{name}.wv").reshape(-1, heads, d).transpose(1, 0, 2)
    mixed = (_softmax(q @ k.transpose(0, 2, 1) / math.sqrt(d)) @ v).transpose(1, 0, 2).reshape(n, c)
    x = query + _linear(mixed, params, f"{name}.wo")
    hidden = np.maximum(_linear(_layer_norm(x, params, f"{name}.ln_ff"), params, f"{name}.ff1"), 0.0)
    return x + _linear(hidden, params, f"{name}.ff2")


def encode(image, voxels, pos, params, config) -> np.ndarray:
    """Broad light-range feature, (H*W, C): heads, fusion, shared-weight loop."""
    h, w, _ = image.shape

    def head(stack, first, second):
        flat = stack.reshape(h * w, -1)
        return _linear(np.maximum(_linear(flat, params, first), 0.0), params, second)

    f_e = head(np.concatenate([voxels, pos], axis=2), "head_event_1", "head_event_2")
    f_i = head(np.concatenate([image, pos], axis=2), "head_image_1", "head_image_2")
    heads = config["heads"]
    f_1 = _block(f_i, f_e, params, "fuse", heads)
    f_j = f_1
    for _ in range(config["loop_count"]):
        f_j = _block(_block(f_j, f_e, params, "loop_event", heads), f_1, params, "loop_anchor", heads)
    return f_j


def decode(blr, prompt: float, params, config, shape) -> np.ndarray:
    """Per-pixel MLP with the prompt embedding merged before every layer."""
    b = np.array([[prompt]])
    hidden = np.maximum(_linear(b, params, "prompt_in"), 0.0)
    embed = _linear(np.concatenate([hidden, b], axis=1), params, "prompt_out")[0]
    layers = sorted(
        {k.split(".")[1] for k in params if k.startswith("decoder.")}, key=int
    )
    x = blr
    for i, layer in enumerate(layers):
        merged = x * embed if config["prompt_merge"] == "multiply" else x + embed
        z = _linear(merged, params, f"decoder.{layer}")
        x = np.maximum(z, 0.0) if i < len(layers) - 1 else 1.0 / (1.0 + np.exp(-z))
    return x.reshape(shape[0], shape[1], 3)


def forward(image, voxels, prompt, params, config) -> np.ndarray:
    pos = position_feature(image.shape[1], image.shape[0], config["bayer"], config["pos_dim"])
    return decode(encode(image, voxels, pos, params, config), prompt, params, config, image.shape)


def training_loss(pred, target, lambda1, lambda2, epsilon) -> float:
    """lambda1 * mean Charbonnier + lambda2 * mean |forward-difference error|,
    the differences zero-padded on the far border of both axes."""
    d = pred - target
    charbonnier = np.sqrt(d * d + epsilon * epsilon).mean()
    grad_sum = np.abs(np.diff(d, axis=1)).sum() + np.abs(np.diff(d, axis=0)).sum()
    return float(lambda1 * charbonnier + lambda2 * grad_sum / (2.0 * d.size))


# --------------------------------------------------------------------------- calibration


def event_counts(log_frames: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) event counts per (frame, y, x) by stepping each
    pixel's reference one threshold at a time while it trails the log level by
    more than the threshold.  ``log_frames`` is (frames, H, W) log radiance."""
    ref = log_frames[0].copy()
    pos = np.zeros(log_frames.shape, dtype=np.int64)
    neg = np.zeros(log_frames.shape, dtype=np.int64)
    for f in range(1, log_frames.shape[0]):
        while True:
            up = log_frames[f] - ref > threshold
            down = ref - log_frames[f] > threshold
            if not (up.any() or down.any()):
                break
            pos[f] += up
            neg[f] += down
            ref = ref + threshold * up - threshold * down
    return pos, neg


def _mean_distance_rect(x0, x1, y0, y1) -> float:
    """Mean of sqrt(x^2 + y^2) over the rectangle [x0, x1] x [y0, y1]."""

    def prim(x, y):  # d2F/dxdy = sqrt(x^2 + y^2)
        r = math.hypot(x, y)
        out = x * y * r / 3.0
        if y + r > 0 and x != 0:
            out += x**3 * math.log(y + r) / 6.0
        if x + r > 0 and y != 0:
            out += y**3 * math.log(x + r) / 6.0
        return out

    total = prim(x1, y1) - prim(x0, y1) - prim(x1, y0) + prim(x0, y0)
    return total / ((x1 - x0) * (y1 - y0))


def rotation_mean_displacement(angle_deg, tx, ty, width, height) -> float:
    """Mean displacement over the image area [-0.5, W-0.5] x [-0.5, H-0.5] of a
    rotation by ``angle_deg`` about the image centre followed by (tx, ty).

    A rotation by theta plus a translation is a rotation by theta about one fixed
    point p0, which moves every point p by 2 sin(theta/2) |p - p0|; the mean
    distance to p0 over a rectangle has a closed form.  For theta = 0 every
    point moves by |t|.
    """
    theta = math.radians(angle_deg)
    if theta == 0.0:
        return math.hypot(tx, ty)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    # fixed point q of q -> R q + t (coordinates relative to the centre)
    c, s = math.cos(theta), math.sin(theta)
    a, b, d, e = 1.0 - c, s, -s, 1.0 - c  # (I - R) = [[a, b], [d, e]]
    det = a * e - b * d
    qx = (e * tx - b * ty) / det
    qy = (a * ty - d * tx) / det
    px, py = cx + qx, cy + qy
    mean_r = _mean_distance_rect(-0.5 - px, width - 0.5 - px, -0.5 - py, height - 0.5 - py)
    return 2.0 * abs(math.sin(theta / 2.0)) * mean_r
