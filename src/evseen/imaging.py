"""Frame-camera image formation: radiance -> noisy voltage -> quantized RAW -> RGB.

The chain is deliberately minimal: additive Gaussian read noise, mean-recentered
Poisson shot noise, linear quantization, and a linear 2x2 block demosaic with no
tone curve.  Radiance is pre-normalized so exposure predicates operate on [0, 1]
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayer import BayerOrder

__all__ = [
    "RadianceField",
    "NoiseModel",
    "RawImage",
    "RgbImage",
    "render_raw",
    "apply_isp",
    "brightness",
    "exposure_class",
    "exposure_ok",
]


@dataclass(frozen=True)
class RadianceField:
    """Frame-sampled nonnegative radiance, values indexed (t, y, x)."""

    values: np.ndarray
    timestamps_us: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        try:
            times = np.asarray(self.timestamps_us, dtype=np.int64)
        except OverflowError:
            raise ValueError("timestamps must fit in int64 microseconds") from None
        if values.ndim != 3:
            raise ValueError("radiance values must be a (frames, height, width) array")
        if times.shape != (values.shape[0],):
            raise ValueError("need one timestamp per frame")
        if not np.all(times[1:] > times[:-1]):  # compared, not differenced: a difference can wrap
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(values)) or values.min(initial=0.0) < 0.0:
            raise ValueError("radiance must be finite and nonnegative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps_us", times)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class NoiseModel:
    """Additive sensor noise; draws are fully determined by (rng_seed, frame).

    ``shot_scale`` maps radiance to the expected photon count k; the shot draw is
    Poisson(k) minus its mean, so any zero-noise configuration stays unbiased.
    """

    gaussian_mu: float = 0.0
    gaussian_sigma: float = 0.0
    shot_scale: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.gaussian_sigma < 0:
            raise ValueError("gaussian_sigma must be >= 0")
        if self.shot_scale < 0:
            raise ValueError("shot_scale must be >= 0")


@dataclass(frozen=True)
class RawImage:
    """Single-channel quantized sensor readout."""

    values: np.ndarray
    bit_depth: int = 8

    def __post_init__(self) -> None:
        if not 8 <= self.bit_depth <= 12:
            raise ValueError("bit_depth must be in [8, 12]")
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise ValueError("raw values must be a (height, width) array")
        values = values.astype(np.uint16)
        if values.max(initial=0) > (1 << self.bit_depth) - 1:
            raise ValueError("raw value exceeds quantization range")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def max_value(self) -> int:
        return (1 << self.bit_depth) - 1


@dataclass(frozen=True)
class RgbImage:
    """Float RGB image with all values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3 or values.shape[2] != 3:
            raise ValueError("rgb values must be a (height, width, 3) array")
        if not np.all(np.isfinite(values)):
            raise ValueError("rgb values must be finite")
        if values.min(initial=0.0) < 0.0 or values.max(initial=0.0) > 1.0:
            raise ValueError("rgb values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def render_raw(field: RadianceField, frame: int, noise: NoiseModel, bit_depth: int = 8) -> RawImage:
    """Quantize one radiance frame into a RAW image.

    Each pixel is clamp(round((L + gaussian + shot) * (2^bit_depth - 1))) where the
    shot term is a recentered Poisson draw with mean shot_scale * L.
    """
    if not 0 <= frame < field.frames:
        raise IndexError(f"frame {frame} out of range [0, {field.frames})")
    return RawImage(_quantize(field.values[frame : frame + 1], frame, noise, bit_depth)[0], bit_depth)


def _quantize(radiance: np.ndarray, first: int, noise: NoiseModel, bit_depth: int) -> np.ndarray:
    """``render_raw``'s readout of an (F, H, W) stack of frames ``first``, ``first`` + 1, ...;
    frame f's noise is drawn from its own (rng_seed, f) generator."""
    if not 8 <= bit_depth <= 12:
        raise ValueError("bit_depth must be in [8, 12]")
    signal = radiance
    if noise.gaussian_sigma > 0 or noise.gaussian_mu != 0 or noise.shot_scale > 0:
        signal = radiance.copy()
        for i, frame in enumerate(signal):
            rng = np.random.default_rng((noise.rng_seed & 0xFFFFFFFFFFFFFFFF, first + i))
            if noise.gaussian_sigma > 0 or noise.gaussian_mu != 0:
                frame += rng.normal(noise.gaussian_mu, noise.gaussian_sigma, frame.shape)
            if noise.shot_scale > 0:
                # photon count k = shot_scale * L; the voltage perturbation is the
                # recentered count mapped back through the same gain, so the noise
                # std is sqrt(L / shot_scale) and the zero-noise limit is unbiased
                expected = noise.shot_scale * radiance[i]
                frame += (rng.poisson(expected) - expected) / noise.shot_scale
    scale = (1 << bit_depth) - 1
    return np.clip(np.rint(signal * scale), 0, scale).astype(np.uint16)


def apply_isp(raw: RawImage, bayer: BayerOrder = BayerOrder()) -> RgbImage:
    """Linear stub ISP: normalize to [0, 1] and demosaic by 2x2 block averaging.

    Each output 2x2 block is filled with the block's R value, the mean of its two
    G values, and its B value; no tone curve is applied.
    """
    return RgbImage(_demosaic(raw.values[None], raw.bit_depth, bayer)[0])


def _demosaic(raw: np.ndarray, bit_depth: int, bayer: BayerOrder) -> np.ndarray:
    """``apply_isp`` over an (F, H, W) stack of RAW values: (F, H, W, 3) RGB values."""
    if raw.shape[1] % 2 or raw.shape[2] % 2:
        raise ValueError("ISP requires even image dimensions")
    norm = raw.astype(np.float64) / ((1 << bit_depth) - 1)
    cells = (norm[:, 0::2, 0::2], norm[:, 0::2, 1::2], norm[:, 1::2, 0::2], norm[:, 1::2, 1::2])
    positions = bayer.channel_positions()
    red = cells[positions["R"][0]]
    green = 0.5 * (cells[positions["G"][0]] + cells[positions["G"][1]])
    blue = cells[positions["B"][0]]
    small = np.stack([red, green, blue], axis=-1)
    return np.repeat(np.repeat(small, 2, axis=1), 2, axis=2)


def brightness(img: RgbImage) -> float:
    """Global average brightness: arithmetic mean over all pixels and channels."""
    return float(img.values.mean())


EXPOSURE_BAND = (0.4, 0.7)
_BAND_EPS = 1e-9  # absorbs summation rounding so the boundaries stay inclusive


def exposure_class(value: float) -> str:
    """A brightness value below, inside or above [0.4, 0.7] inclusive: "low", "normal" or "high"."""
    if value < EXPOSURE_BAND[0] - _BAND_EPS:
        return "low"
    return "normal" if value <= EXPOSURE_BAND[1] + _BAND_EPS else "high"


def exposure_ok(img: RgbImage) -> bool:
    """Accurate-exposure predicate: mean brightness inside [0.4, 0.7] inclusive."""
    return exposure_class(brightness(img)) == "normal"
