"""Training-pair enumeration over multi-lighting scene recordings, plus a
procedural scene generator that renders one radiance field under several
exposure scalings (the synthetic analogue of swapping ND filters)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayer import BayerOrder
from .events import EventStream, simulate_events
from .imaging import NoiseModel, RadianceField, RgbImage, _demosaic, _quantize, brightness, exposure_class

__all__ = [
    "SceneRecording",
    "PairSet",
    "classify_lighting",
    "enumerate_pairs",
    "synth_scene",
]

LIGHTING_CLASSES = ("low", "normal", "high")


@dataclass
class SceneRecording:
    """One lighting condition of a scene: frames, events, and the exposure scale."""

    scene_id: str
    lighting_class: str
    frames: list[RgbImage]
    events: EventStream
    exposure_scale: float

    def __post_init__(self) -> None:
        if self.lighting_class not in LIGHTING_CLASSES:
            raise ValueError(f"lighting_class must be one of {LIGHTING_CLASSES}")

    def mean_frame(self) -> RgbImage:
        stack = np.stack([f.values for f in self.frames])
        return RgbImage(stack.mean(axis=0))


@dataclass
class PairSet:
    """Recording-level training pairs; frame expansion happens lazily."""

    recordings: list[SceneRecording]
    pairs: list[tuple[int, int]]  # (input index, target index)

    def __len__(self) -> int:
        return len(self.pairs)

    def frame_pairs(self):
        """Expand to (input recording, target recording, frame index) triples."""
        out = []
        for i, t in self.pairs:
            n = min(len(self.recordings[i].frames), len(self.recordings[t].frames))
            for k in range(n):
                out.append((self.recordings[i], self.recordings[t], k))
        return out


def classify_lighting(frames: list[RgbImage]) -> str:
    """Lighting class of the mean frame brightness: ``imaging.exposure_class``."""
    if not frames:
        raise ValueError("recording has no frames")
    return exposure_class(float(np.mean([brightness(f) for f in frames])))


def enumerate_pairs(scene: list[SceneRecording]) -> PairSet:
    """Every (input, target) pair whose target is a normal-light recording.

    Inputs span every class, including the other normal recordings, so a scene
    with n_norm normal recordings out of n_total yields n_norm * (n_total - 1)
    pairs.
    """
    normals = [i for i, rec in enumerate(scene) if rec.lighting_class == "normal"]
    if not normals:
        raise ValueError("scene has no normal-light recording to use as a target")
    pairs = [(i, t) for t in normals for i in range(len(scene)) if i != t]
    return PairSet(list(scene), pairs)


def _procedural_field(
    rng: np.random.Generator, width: int, height: int, frames: int
) -> RadianceField:
    """Textured gradients plus moving soft blobs under a slow global drift."""
    xs = np.arange(width) / max(width - 1, 1)
    ys = np.arange(height) / max(height - 1, 1)
    uu, vv = np.meshgrid(xs, ys)
    base = 0.35 + 0.25 * uu + 0.15 * np.sin(2.0 * np.pi * (vv + 0.3 * uu))

    n_blobs = 3
    cx0 = rng.uniform(0.2, 0.8, n_blobs)
    cy0 = rng.uniform(0.2, 0.8, n_blobs)
    velocity = rng.uniform(-0.35, 0.35, (n_blobs, 2))
    amp = rng.uniform(0.15, 0.3, n_blobs)
    sigma = rng.uniform(0.08, 0.18, n_blobs)

    s = (np.arange(frames) / max(frames - 1, 1))[:, None, None]
    stack = base * (1.0 + 0.08 * np.sin(2.0 * np.pi * s))
    for b in range(n_blobs):
        cx = (cx0[b] + velocity[b, 0] * s) % 1.0
        cy = (cy0[b] + velocity[b, 1] * s) % 1.0
        stack = stack + amp[b] * np.exp(-((uu - cx) ** 2 + (vv - cy) ** 2) / (2.0 * sigma[b] ** 2))
    stack = np.clip(stack, 0.02, 0.98)
    timestamps = np.arange(frames, dtype=np.int64) * 10_000  # 100 fps
    return RadianceField(stack, timestamps)


def synth_scene(
    seed: int,
    lighting_scales: tuple[float, ...] = (1 / 8, 1 / 64, 1 / 1000, 1.0),
    width: int = 24,
    height: int = 24,
    frames: int = 10,
    noise_sigma: float = 0.003,
    threshold: float = 0.25,
) -> list[SceneRecording]:
    """Render one procedural scene under each exposure scale.

    Event streams are simulated from the scaled radiance, so they agree across
    scales wherever the scaled radiance stays above the log floor.
    """
    if not all(math.isfinite(s) and s > 0 for s in lighting_scales):
        raise ValueError(f"lighting scales must be finite and positive, got {lighting_scales}")
    rng = np.random.default_rng(seed)
    field = _procedural_field(rng, width, height, frames)
    recordings = []
    for idx, scale in enumerate(lighting_scales):
        scaled = RadianceField(field.values * scale, field.timestamps_us)
        noise = NoiseModel(
            gaussian_sigma=noise_sigma, rng_seed=(seed * 1013 + 7 * idx) & 0xFFFFFFFF
        )
        raw = _quantize(scaled.values, 0, noise, 8)
        rendered = [RgbImage(rgb) for rgb in _demosaic(raw, 8, BayerOrder())]
        events = simulate_events(scaled, threshold)
        recordings.append(
            SceneRecording(
                scene_id=f"synth-{seed}",
                lighting_class=classify_lighting(rendered),
                frames=rendered,
                events=events,
                exposure_scale=float(scale),
            )
        )
    return recordings
