"""Prompt-conditioned brightness adjustment network, desk scale.

Architecture: per-pixel linear heads lift the image and the event voxel grid
(each concatenated with a positional/Bayer feature) to a shared width; a
cross-attention block fuses them, and a weight-shared two-block loop refines the
fused feature into the broad light-range representation, the BLR (each block's
keys and values are projected once per encode); a scalar brightness prompt is
embedded to a channel vector and merged into every layer of a pixel-wise MLP
decoder.  Every feature from the heads to the decoder output is an (H*W, C)
token matrix, one row per pixel in row-major order; only a taped forward and
``forward_prompts`` lay their output out as an H x W image.
Training minimizes a Charbonnier image term plus an L1 forward-difference
gradient term, one ``autodiff.charbonnier_gradient_loss`` node on the tape.
Training runs in float64; inference (``forward_prompts``) in float32, on a
float32 copy of the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import formats
from .autodiff import Tensor
from .bayer import BayerOrder
from .events import VoxelGrid, position_embedding, voxelize
from .imaging import RgbImage, brightness

__all__ = [
    "SeeNetConfig",
    "SeeNetParams",
    "BrightnessPrompt",
    "CALIBRATION_CONFIG",
    "init_params",
    "input_heads",
    "encode",
    "encode_image",
    "prompt_embed",
    "decode",
    "loss",
    "forward",
    "forward_prompts",
    "train_toy",
    "parameter_count",
]

LAYER_NORM_EPS = 1e-5


@dataclass(frozen=True)
class SeeNetConfig:
    channels: int = 16
    heads: int = 2
    loop_count: int = 4
    decoder_layers: int = 5
    voxel_bins: int = 8
    pos_dim: int = 8
    lambda1: float = 1.0
    lambda2: float = 0.5
    epsilon: float = 1e-3
    prompt_merge: str = "add"
    bayer: str = "RGGB"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.channels < 1 or self.heads < 1:
            raise ValueError("channels and heads must be >= 1")
        if self.channels % self.heads:
            raise ValueError("channels must be divisible by heads")
        if self.loop_count < 1:
            raise ValueError("loop_count must be >= 1")
        if self.decoder_layers < 2:
            raise ValueError("decoder needs at least 2 layers")
        if self.pos_dim < 3:
            raise ValueError("pos_dim must be >= 3")
        if self.voxel_bins < 1:
            raise ValueError("voxel_bins must be >= 1")
        if self.prompt_merge not in ("add", "multiply"):
            raise ValueError("prompt_merge must be 'add' or 'multiply'")
        if not all(math.isfinite(v) and v >= 0 for v in (self.lambda1, self.lambda2)):
            raise ValueError("lambda1 and lambda2 must be finite and >= 0")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and positive")
        BayerOrder(self.bayer)


# reconstruction of the full-scale configuration; lands near 1.9M parameters
CALIBRATION_CONFIG = SeeNetConfig(
    channels=248, heads=8, loop_count=20, voxel_bins=16, pos_dim=16
)


@dataclass(frozen=True)
class BrightnessPrompt:
    value: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.value < 1.0:
            raise ValueError(f"brightness prompt must lie in (0, 1), got {self.value}")


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class AttentionBlockParams:
    ln_q: LayerNormParams
    ln_kv: LayerNormParams
    wq: LinearParams
    wk: LinearParams
    wv: LinearParams
    wo: LinearParams
    ln_ff: LayerNormParams
    ff1: LinearParams
    ff2: LinearParams


@dataclass
class SeeNetParams:
    head_event_1: LinearParams
    head_event_2: LinearParams
    head_image_1: LinearParams
    head_image_2: LinearParams
    fuse: AttentionBlockParams          # initial image-queries-events fusion
    loop_event: AttentionBlockParams    # loop block 1: F_j queries the event feature
    loop_anchor: AttentionBlockParams   # loop block 2: result queries the fused anchor
    prompt_in: LinearParams
    prompt_out: LinearParams
    decoder: list[LinearParams] = field(default_factory=list)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Every parameter by dotted path, walking the fields in declaration
        order (list items as ``.{i}``); this order is the checkpoint layout."""
        out: list[tuple[str, Tensor]] = []

        def walk(name: str, value) -> None:
            if isinstance(value, Tensor):
                out.append((name, value))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    walk(f"{name}.{i}", item)
            else:
                for f in fields(value):
                    walk(f"{name}.{f.name}" if name else f.name, getattr(value, f.name))

        walk("", self)
        return out


def _astype(value, dtype):
    """A copy of a parameter tree (walked as ``named_tensors`` walks it) whose
    tensors hold their data as ``dtype``; the original is left untouched."""
    if isinstance(value, Tensor):
        return Tensor(value.data.astype(dtype))
    if isinstance(value, list):
        return [_astype(item, dtype) for item in value]
    return type(value)(**{f.name: _astype(getattr(value, f.name), dtype) for f in fields(value)})


def _init_linear(rng: np.random.Generator, n_in: int, n_out: int) -> LinearParams:
    w = rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out))
    return LinearParams(Tensor(w, requires_grad=True), Tensor(np.zeros(n_out), requires_grad=True))


def _init_block(rng: np.random.Generator, c: int) -> AttentionBlockParams:
    def ln() -> LayerNormParams:
        return LayerNormParams(
            Tensor(np.ones(c), requires_grad=True), Tensor(np.zeros(c), requires_grad=True)
        )

    return AttentionBlockParams(
        ln_q=ln(),
        ln_kv=ln(),
        wq=_init_linear(rng, c, c),
        wk=_init_linear(rng, c, c),
        wv=_init_linear(rng, c, c),
        wo=_init_linear(rng, c, c),
        ln_ff=ln(),
        ff1=_init_linear(rng, c, 2 * c),
        ff2=_init_linear(rng, 2 * c, c),
    )


def init_params(config: SeeNetConfig) -> SeeNetParams:
    rng = np.random.default_rng(config.seed)
    c = config.channels
    decoder = [_init_linear(rng, c, c) for _ in range(config.decoder_layers - 1)]
    decoder.append(_init_linear(rng, c, 3))
    return SeeNetParams(
        head_event_1=_init_linear(rng, config.voxel_bins + config.pos_dim, c),
        head_event_2=_init_linear(rng, c, c),
        head_image_1=_init_linear(rng, 3 + config.pos_dim, c),
        head_image_2=_init_linear(rng, c, c),
        fuse=_init_block(rng, c),
        loop_event=_init_block(rng, c),
        loop_anchor=_init_block(rng, c),
        prompt_in=_init_linear(rng, 1, c),
        prompt_out=_init_linear(rng, c + 1, c),
        decoder=decoder,
    )


# ---------------------------------------------------------------------------
# functional pieces on (sequence, channels) tensors


def _linear(x: Tensor, p: LinearParams) -> Tensor:
    return ad.matmul(x, p.w) + p.b


def _layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    return ad.layer_norm(x, p.gamma, p.beta, LAYER_NORM_EPS)


def project_memory(kv_flat: Tensor, block: AttentionBlockParams) -> tuple[Tensor, Tensor]:
    kn = _layer_norm(kv_flat, block.ln_kv)
    return _linear(kn, block.wk), _linear(kn, block.wv)


def attention_mix(query_flat: Tensor, kv: tuple[Tensor, Tensor], block: AttentionBlockParams, heads: int) -> Tensor:
    """Multi-head softmax mixing term before the output projection; ``kv`` is the block's ``project_memory``."""
    qn = _layer_norm(query_flat, block.ln_q)
    d = query_flat.shape[1] // heads
    q = _linear(qn, block.wq) * (1.0 / math.sqrt(d))  # the logits' 1/sqrt(d), folded into q
    return ad.attention(q, *kv, heads)


def _cross_attention(query_flat: Tensor, kv: tuple[Tensor, Tensor], block: AttentionBlockParams, heads: int) -> Tensor:
    mix = attention_mix(query_flat, kv, block, heads)
    x = query_flat + _linear(mix, block.wo)
    ff = _linear(ad.relu(_linear(_layer_norm(x, block.ln_ff), block.ff1)), block.ff2)
    return x + ff


def _head(stack: np.ndarray, l1: LinearParams, l2: LinearParams) -> Tensor:
    h, w, cin = stack.shape
    x = Tensor(stack.reshape(h * w, cin).astype(l1.w.data.dtype, copy=False))
    return _linear(ad.relu(_linear(x, l1)), l2)


def input_heads(
    img: RgbImage, voxels: VoxelGrid, pos: np.ndarray, params: SeeNetParams
) -> tuple[Tensor, Tensor]:
    """Initial event and image features, (H*W, C) each: two per-pixel linear
    layers with a rectifier between, fed the inputs concatenated with the
    positional feature."""
    if voxels.values.shape[:2] != img.values.shape[:2] or pos.shape[:2] != img.values.shape[:2]:
        raise ValueError("image, voxel grid, and positional feature sizes disagree")
    expected_in = params.head_event_1.w.shape[0]
    if voxels.bins + pos.shape[2] != expected_in:
        raise ValueError(
            f"voxel bins + pos_dim = {voxels.bins + pos.shape[2]} does not match head width {expected_in}"
        )
    f_e = _head(np.concatenate([voxels.values, pos], axis=2), params.head_event_1, params.head_event_2)
    f_i = _head(np.concatenate([img.values, pos], axis=2), params.head_image_1, params.head_image_2)
    return f_e, f_i


def encode(f_e: Tensor, f_i: Tensor, config: SeeNetConfig, params: SeeNetParams) -> Tensor:
    """Fuse then refine the (H*W, C) features into the (H*W, C) BLR: F_1 =
    fuse(image queries events); each loop iteration queries the running feature
    over the events, then the result over F_1.  Loop weights are shared across
    iterations; each block projects its keys and values once."""
    f_1 = _cross_attention(f_i, project_memory(f_e, params.fuse), params.fuse, config.heads)
    events_kv = project_memory(f_e, params.loop_event)
    anchor_kv = project_memory(f_1, params.loop_anchor)
    f_j = f_1
    for j in range(config.loop_count):
        a = _cross_attention(f_j, events_kv, params.loop_event, config.heads)
        f_j = _cross_attention(a, anchor_kv, params.loop_anchor, config.heads)
        if not np.all(np.isfinite(f_j.data)):
            raise FloatingPointError(f"non-finite encoder feature at loop iteration {j}")
    return f_j


def prompt_embed(prompt: "BrightnessPrompt | float", params: SeeNetParams) -> Tensor:
    """Lift the scalar prompt to a channel-width vector: inner MLP, concat with
    the raw prompt, outer linear map."""
    value = prompt.value if isinstance(prompt, BrightnessPrompt) else float(prompt)
    BrightnessPrompt(value)  # range check
    b = Tensor(np.array([[value]], params.prompt_in.w.data.dtype))
    hidden = ad.relu(_linear(b, params.prompt_in))
    cat = ad.concat_lastdim([hidden, b])
    out = _linear(cat, params.prompt_out)
    return ad.reshape(out, (out.shape[1],))


def decode(blr: Tensor, b_vec: Tensor, config: SeeNetConfig, params: SeeNetParams) -> Tensor:
    """Pixel-wise MLP decoder from the (H*W, C) BLR to (H*W, 3) values; the
    prompt embedding is merged into every layer and the final layer lands in
    [0, 1] through a sigmoid."""
    if b_vec.size != blr.shape[1]:
        raise ValueError("prompt embedding width does not match the feature channels")
    x = blr
    for i, layer in enumerate(params.decoder):
        x = _linear(x * b_vec if config.prompt_merge == "multiply" else x + b_vec, layer)
        x = ad.sigmoid(x) if i == len(params.decoder) - 1 else ad.relu(x)
    return x


def encode_image(
    img: RgbImage,
    voxels: VoxelGrid,
    config: SeeNetConfig,
    params: SeeNetParams,
    pos: np.ndarray | None = None,
) -> Tensor:
    """The prompt-independent half of the network: heads -> encode, the (H*W, C) BLR."""
    if pos is None:
        pos = position_embedding(img.width, img.height, BayerOrder(config.bayer), config.pos_dim)
    f_e, f_i = input_heads(img, voxels, pos, params)
    return encode(f_e, f_i, config, params)


def _forward_tensor(
    img: RgbImage,
    voxels: VoxelGrid,
    prompt: "BrightnessPrompt | float",
    config: SeeNetConfig,
    params: SeeNetParams,
    pos: np.ndarray | None = None,
) -> Tensor:
    blr = encode_image(img, voxels, config, params, pos)
    return ad.reshape(decode(blr, prompt_embed(prompt, params), config, params), (img.height, img.width, 3))


def forward_prompts(
    img: RgbImage,
    voxels: VoxelGrid,
    prompts: "list[BrightnessPrompt | float]",
    config: SeeNetConfig,
    params: SeeNetParams,
    pos: np.ndarray | None = None,
) -> list[RgbImage]:
    """Encode once, then decode once per prompt, in float32 on a float32 copy of
    ``params``.  No tensor of that copy requires a gradient, so no autodiff
    tape is recorded.

    Every prompt is range-checked before the encoder runs.  The images are
    float64.  An activation past float32 range raises ``FloatingPointError``
    (one message, no numpy warnings)."""
    with np.errstate(over="ignore", invalid="ignore"):
        params = _astype(params, np.float32)
        b_vecs = [prompt_embed(p, params) for p in prompts]
        images = []
        try:
            blr = encode_image(img, voxels, config, params, pos)
            for b_vec in b_vecs:
                values = decode(blr, b_vec, config, params).data
                if not np.all(np.isfinite(values)):
                    raise FloatingPointError("non-finite decoder output")
                images.append(RgbImage(values.reshape(img.height, img.width, 3)))
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} (inference runs in float32)") from None
        return images


def forward(
    img: RgbImage,
    voxels: VoxelGrid,
    prompt: "BrightnessPrompt | float",
    config: SeeNetConfig,
    params: SeeNetParams,
    pos: np.ndarray | None = None,
) -> RgbImage:
    """Full enhancement pass for one prompt, with no tape: ``forward_prompts``
    on a one-element list."""
    return forward_prompts(img, voxels, [prompt], config, params, pos)[0]


# ---------------------------------------------------------------------------
# loss


def loss(
    i_o: RgbImage, i_t: RgbImage, lambda1: float = 1.0, lambda2: float = 0.5, epsilon: float = 1e-3
) -> float:
    """Charbonnier image term plus L1 forward-difference gradient term."""
    return float(ad.charbonnier_gradient_loss(Tensor(i_o.values), i_t.values, lambda1, lambda2, epsilon).data)


# ---------------------------------------------------------------------------
# training


def train_toy(
    dataset,
    config: SeeNetConfig,
    steps: int,
    lr: float,
) -> tuple[SeeNetParams, list[float]]:
    """Plain SGD on the training loss over enumerated frame pairs.

    ``dataset`` is a PairSet; the prompt for each step is the target frame's
    global brightness.  Deterministic given the config seed.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError("learning rate must be finite and >= 0")
    samples = dataset.frame_pairs()
    if not samples:
        raise ValueError("empty training dataset")

    params = init_params(config)
    tensors = [t for _, t in params.named_tensors()]
    pos_cache: dict[tuple[int, int], np.ndarray] = {}
    voxel_cache: dict[int, VoxelGrid] = {}
    losses: list[float] = []
    for step in range(steps):
        input_rec, target_rec, frame = samples[step % len(samples)]
        img = input_rec.frames[frame]
        target = target_rec.frames[frame]
        key = (img.height, img.width)
        if key not in pos_cache:
            pos_cache[key] = position_embedding(
                img.width, img.height, BayerOrder(config.bayer), config.pos_dim
            )
        if id(input_rec) not in voxel_cache:
            voxel_cache[id(input_rec)] = voxelize(input_rec.events, config.voxel_bins)
        voxels = voxel_cache[id(input_rec)]
        prompt = brightness(target)
        pred = _forward_tensor(img, voxels, prompt, config, params, pos_cache[key])
        step_loss = ad.charbonnier_gradient_loss(pred, target.values, config.lambda1, config.lambda2, config.epsilon)
        value = float(step_loss.data)
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite loss at step {step}")
        losses.append(value)
        for t in tensors:
            t.grad = None
        step_loss.backward()
        for t in tensors:
            if t.grad is not None:
                t.data -= lr * t.grad
    return params, losses


# ---------------------------------------------------------------------------
# checkpoints


def save_params(params: SeeNetParams, config: SeeNetConfig, path) -> None:
    formats.save_checkpoint(
        [(name, t.data) for name, t in params.named_tensors()],
        formats.config_to_text(config),
        path,
    )


def load_params(path) -> tuple[SeeNetParams, SeeNetConfig]:
    arrays, text = formats.load_checkpoint(path)
    config = formats.config_from_text(text, SeeNetConfig)
    stored, needed = sum(a.size for a in arrays.values()), parameter_count(config)
    if stored < needed:
        raise formats.FormatError(f"checkpoint stores {stored} values, its config needs {needed}")
    params = init_params(config)
    layout = dict(params.named_tensors())
    surplus = [name for name in arrays if name not in layout]
    if surplus:
        raise formats.FormatError(f"checkpoint array {surplus[0]} is not a parameter of its config")
    for name, tensor in layout.items():
        if name not in arrays:
            raise formats.FormatError(f"checkpoint missing parameter {name}")
        if arrays[name].shape != tensor.data.shape:
            raise formats.FormatError(
                f"checkpoint parameter {name} has shape {arrays[name].shape}, expected {tensor.data.shape}"
            )
        tensor.data = arrays[name]
    return params, config


# ---------------------------------------------------------------------------
# parameter accounting


def parameter_count(config: SeeNetConfig) -> int:
    """Closed-form parameter total; must equal a walk over instantiated tensors."""
    c = config.channels
    head_e = (config.voxel_bins + config.pos_dim) * c + c + c * c + c
    head_i = (3 + config.pos_dim) * c + c + c * c + c
    block = 6 * c + 4 * (c * c + c) + (c * 2 * c + 2 * c) + (2 * c * c + c)
    prompt = (1 * c + c) + ((c + 1) * c + c)
    decoder = (config.decoder_layers - 1) * (c * c + c) + (c * 3 + 3)
    return head_e + head_i + 3 * block + prompt + decoder


# ---------------------------------------------------------------------------
# gradient verification helpers


def end_to_end_grad_errors(
    config: SeeNetConfig, height: int = 6, width: int = 6, seed: int = 0
) -> dict[str, float]:
    """Finite-difference error of d(loss)/d(group) for every parameter group."""
    rng = np.random.default_rng(seed)
    params = init_params(config)
    img = RgbImage(rng.uniform(0.1, 0.9, size=(height, width, 3)))
    target = rng.uniform(0.1, 0.9, size=(height, width, 3))
    grid = VoxelGrid(rng.normal(0.0, 0.5, size=(height, width, config.voxel_bins)), 0, 1)
    pos = position_embedding(width, height, BayerOrder(config.bayer), config.pos_dim)

    def objective(_t: Tensor) -> Tensor:
        pred = _forward_tensor(img, grid, 0.5, config, params, pos)
        return ad.charbonnier_gradient_loss(pred, target, config.lambda1, config.lambda2, config.epsilon)

    errors: dict[str, float] = {}
    for name, tensor in params.named_tensors():
        errors[name] = ad.max_grad_error(objective, tensor)
    return errors
