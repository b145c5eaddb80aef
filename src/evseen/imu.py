"""Temporal registration of inertial streams.

Two 1000 Hz sequences recorded along the same trajectory differ by an unknown
constant offset.  The recovery pipeline is: per-channel constant-velocity Kalman
denoising, a 3-level average-pooling pyramid, then a coarse-to-fine search for
the bias b and matching length l minimizing the mean per-sample L1 distance over
the aligned overlap.  ``register_exhaustive`` provides the brute-force reference
used to validate the hierarchy.

Bias convention: ``b`` is the offset of the target relative to the source, i.e.
source[i] aligns with target[i + b].  Prepending samples to the target increases
the recovered bias by the same amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImuSequence",
    "KalmanParams",
    "PyramidLevel",
    "Registration",
    "kalman_denoise",
    "build_pyramid",
    "match_score",
    "register",
    "register_exhaustive",
]

CHANNELS = 6


@dataclass
class ImuSequence:
    """N x 6 inertial samples (accel x/y/z, gyro x/y/z) at a nominal rate."""

    samples: np.ndarray
    rate_hz: float = 1000.0
    t0_us: int = 0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[1] != CHANNELS:
            raise ValueError("samples must be an (N, 6) array")
        if self.samples.shape[0] < 1:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.rate_hz <= 0:
            raise ValueError("rate must be positive")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class KalmanParams:
    process_noise: float = 1e-3
    measurement_noise: float = 1e-1

    def __post_init__(self) -> None:
        if self.process_noise <= 0 or self.measurement_noise <= 0:
            raise ValueError("Kalman noise parameters must be strictly positive")


@dataclass
class PyramidLevel:
    level: int
    pool_factor: int
    data: np.ndarray


@dataclass
class Registration:
    bias_samples: int
    bias_us: int
    length: int
    score: float
    evaluations: int = 0


def kalman_denoise(seq: ImuSequence, params: KalmanParams = KalmanParams()) -> ImuSequence:
    """Per-channel constant-velocity Kalman filter (state = [value, rate]).

    The gain recursion is data-independent, so one scalar covariance track drives
    all six channels.  Constant inputs are fixed points; with measurement noise
    going to zero the output converges to the input.
    """
    z = seq.samples
    n = len(seq)
    q, r = params.process_noise, params.measurement_noise
    # discrete white-noise-acceleration process covariance for unit timestep
    q11, q12, q22 = 0.25 * q, 0.5 * q, q
    x = np.zeros((2, CHANNELS))
    x[0] = z[0]
    p11, p12, p22 = r, 0.0, 1.0
    out = np.empty_like(z)
    for i in range(n):
        if i > 0:
            # predict: x <- F x with F = [[1, 1], [0, 1]]
            x[0] += x[1]
            p11 = p11 + 2.0 * p12 + p22 + q11
            p12 = p12 + p22 + q12
            p22 = p22 + q22
        s = p11 + r
        k1 = p11 / s
        k2 = p12 / s
        innov = z[i] - x[0]
        x[0] += k1 * innov
        x[1] += k2 * innov
        p22 = p22 - k2 * p12
        p12 = p12 - k2 * p11
        p11 = p11 * (1.0 - k1)
        out[i] = x[0]
    return ImuSequence(out, seq.rate_hz, seq.t0_us)


def build_pyramid(
    seq: ImuSequence, pool_factor: int = 32
) -> tuple[PyramidLevel, PyramidLevel, PyramidLevel]:
    """Level-0 data plus two average-pooled levels; trailing partial blocks drop."""
    if pool_factor < 2:
        raise ValueError("pool_factor must be >= 2")
    if len(seq) < pool_factor * pool_factor:
        raise ValueError(
            f"sequence of {len(seq)} samples too short for two pooling levels of {pool_factor}"
        )

    def pool(a: np.ndarray, f: int) -> np.ndarray:
        m = a.shape[0] // f
        return a[: m * f].reshape(m, f, CHANNELS).mean(axis=1)

    level0 = seq.samples
    level1 = pool(level0, pool_factor)
    level2 = pool(level1, pool_factor)
    return (
        PyramidLevel(0, 1, level0),
        PyramidLevel(1, pool_factor, level1),
        PyramidLevel(2, pool_factor * pool_factor, level2),
    )


def match_score(s: np.ndarray, t: np.ndarray, b: int, l: int) -> float:
    """Mean absolute difference over l aligned samples and all 6 channels."""
    start_t = max(0, b)
    start_s = start_t - b
    if l < 1:
        raise ValueError("window length must be positive")
    if start_s + l > s.shape[0] or start_t + l > t.shape[0]:
        raise ValueError(f"overlap window (b={b}, l={l}) does not fit both sequences")
    return float(np.mean(np.abs(s[start_s : start_s + l] - t[start_t : start_t + l])))


class _EvalCounter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def _bias_candidates(ns: int, nt: int, l_min: int) -> range:
    # admissible biases leave an overlap of at least l_min
    return range(-(nt - l_min), ns - l_min + 1)


def _scan_bias(
    s: np.ndarray, t: np.ndarray, b: int, l_min: int, counter: _EvalCounter
) -> tuple[float, int] | None:
    """Best (score, length) for one bias over every admissible length.

    Cumulative sums over the channel-summed absolute difference yield the score
    of every window length in one pass; ties prefer the larger length.
    """
    start_t = max(0, b)
    start_s = start_t - b
    overlap = min(s.shape[0] - start_s, t.shape[0] - start_t)
    if overlap < l_min:
        return None
    diff = np.abs(s[start_s : start_s + overlap] - t[start_t : start_t + overlap]).sum(axis=1)
    csum = np.cumsum(diff)
    lengths = np.arange(l_min, overlap + 1)
    scores = csum[l_min - 1 :] / (CHANNELS * lengths)
    counter.count += len(lengths)
    best = scores.min()
    best_l = int(lengths[scores == best].max())
    return float(best), best_l


def _search_biases(
    s: np.ndarray,
    t: np.ndarray,
    biases: "range | list[int]",
    l_min: int,
    counter: _EvalCounter,
) -> tuple[int, int, float] | None:
    best_key = None
    best = None
    for b in biases:
        res = _scan_bias(s, t, b, l_min, counter)
        if res is None:
            continue
        score, length = res
        key = (score, -length, abs(b), b)
        if best_key is None or key < best_key:
            best_key = key
            best = (b, length, score)
    return best


def _level_l_min(ns: int, nt: int, fraction: float) -> int:
    return max(1, math.ceil(fraction * min(ns, nt)))


def register(
    source: ImuSequence,
    target: ImuSequence,
    pool_factor: int = 32,
    search_radius: int = 2,
    l_min_fraction: float = 0.5,
) -> Registration:
    """Coarse-to-fine (bias, length) search minimizing the mean L1 distance.

    Level 2 scans every admissible bias of the twice-pooled sequences; each finer
    level rescans biases within +/- search_radius * pool_factor samples of the
    upscaled incumbent.  Lengths are scanned at step 1 in each level's own sample
    units, which decimates the level-0 length grid by pool_factor per level until
    the final full-resolution pass.  Ties break deterministically by
    (score, larger length, smaller |bias|, smaller bias).
    """
    if not 0 < l_min_fraction <= 1:
        raise ValueError("l_min_fraction must be in (0, 1]")
    if search_radius < 1:
        raise ValueError("search_radius must be >= 1")
    if source.rate_hz != target.rate_hz:
        raise ValueError("source and target rates differ")
    s_levels = build_pyramid(source, pool_factor)
    t_levels = build_pyramid(target, pool_factor)
    counter = _EvalCounter()

    s2, t2 = s_levels[2].data, t_levels[2].data
    l2_min = _level_l_min(s2.shape[0], t2.shape[0], l_min_fraction)
    coarse = _search_biases(s2, t2, _bias_candidates(s2.shape[0], t2.shape[0], l2_min), l2_min, counter)
    if coarse is None:
        raise ValueError("no admissible overlap at the coarse level")

    incumbent_bias = coarse[0]
    result = None
    for level in (1, 0):
        s_l, t_l = s_levels[level].data, t_levels[level].data
        ns, nt = s_l.shape[0], t_l.shape[0]
        l_min = _level_l_min(ns, nt, l_min_fraction)
        center = incumbent_bias * pool_factor
        radius = search_radius * pool_factor
        admissible = _bias_candidates(ns, nt, l_min)
        lo = max(center - radius, admissible.start)
        hi = min(center + radius, admissible.stop - 1)
        if lo > hi:
            raise ValueError("local search window has no admissible overlap")
        found = _search_biases(s_l, t_l, range(lo, hi + 1), l_min, counter)
        if found is None:
            raise ValueError("no admissible overlap in the local search window")
        incumbent_bias = found[0]
        result = found

    bias, length, score = result
    bias_us = round(bias * 1_000_000 / source.rate_hz)
    return Registration(bias, bias_us, length, score, counter.count)


def register_exhaustive(
    source: ImuSequence, target: ImuSequence, l_min_fraction: float = 0.5
) -> Registration:
    """Full level-0 scan over every admissible bias and length; the reference
    the hierarchical search is checked against.  It shares ``register``'s
    per-bias scan, which ``tests/test_imu.py`` checks against a two-loop score."""
    if not 0 < l_min_fraction <= 1:
        raise ValueError("l_min_fraction must be in (0, 1]")
    if source.rate_hz != target.rate_hz:
        raise ValueError("source and target rates differ")
    s, t = source.samples, target.samples
    ns, nt = s.shape[0], t.shape[0]
    l_min = _level_l_min(ns, nt, l_min_fraction)
    counter = _EvalCounter()
    best = _search_biases(s, t, _bias_candidates(ns, nt, l_min), l_min, counter)
    if best is None:
        raise ValueError("no admissible overlap")
    bias, length, score = best
    bias_us = round(bias * 1_000_000 / source.rate_hz)
    return Registration(bias, bias_us, length, score, counter.count)
