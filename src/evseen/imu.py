"""Temporal registration of inertial streams.

Two 1000 Hz sequences recorded along the same trajectory differ by an unknown
constant offset.  The recovery pipeline is: per-channel constant-velocity Kalman
denoising (a gain track cut at its exact fixed point, then a log-depth prefix
scan of the affine state update: Blelloch 1990; Sarkka & Garcia-Fernandez 2021),
a 3-level average-pooling pyramid, then a coarse-to-fine search for the bias b
and matching length l minimizing the mean per-sample L1 distance over the
aligned overlap.  ``register_exhaustive`` runs the same search on a one-level
pyramid, the full-resolution sequences, which scans every admissible bias and
length; it is the brute-force reference used to validate the hierarchy.

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
        if not (math.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ValueError("rate must be finite and positive")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class KalmanParams:
    process_noise: float = 1e-3
    measurement_noise: float = 1e-1

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0 for v in (self.process_noise, self.measurement_noise)):
            raise ValueError("Kalman noise parameters must be finite and positive")


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

    The gains are data-independent: one scalar covariance track gives (k1, k2)
    for all six channels, and stops once the post-update covariance repeats
    exactly.  In deviation form, s_i = [x0_i - z_i, x1_i] with s_0 = 0, the
    update is affine, s_i = A_i s_{i-1} + u_i (z_i - z_{i-1}) with
    A_i = [[1-k1, 1-k1], [-k2, 1-k2]] and u_i = [k1-1, k2], and an inclusive
    Hillis-Steele scan composes the maps in ceil(log2 n) strides; the output is
    z + s[:, 0].  A constant input has no increments, so it comes back bit for bit.
    """
    z, n = seq.samples, len(seq)
    q, r = params.process_noise, params.measurement_noise
    # discrete white-noise-acceleration process covariance for unit timestep
    q11, q12, q22 = 0.25 * q, 0.5 * q, q
    k1, k2 = np.empty(n), np.empty(n)
    p11, p12, p22 = r, 0.0, 1.0
    for i in range(n):
        prev = (p11, p12, p22)
        if i > 0:  # predict with F = [[1, 1], [0, 1]]
            p11 = p11 + 2.0 * p12 + p22 + q11
            p12 = p12 + p22 + q12
            p22 = p22 + q22
        s = p11 + r
        g1, g2 = p11 / s, p12 / s
        p22 = p22 - g2 * p12
        p12 = p12 - g2 * p11
        p11 = p11 * (1.0 - g1)
        k1[i], k2[i] = g1, g2
        if i > 0 and (p11, p12, p22) == prev:  # a fixed point: every later gain repeats
            k1[i:], k2[i:] = g1, g2
            break
    # map i sends s to [[a, b], [c, d]] s + [e, f]; map 0 sends s_0 = 0 to itself
    a, c = 1.0 - k1, -k2
    b, d = a.copy(), 1.0 - k2
    dz = np.diff(z, axis=0, prepend=z[:1])
    e, f = -a[:, None] * dz, k2[:, None] * dz
    stride = 1
    while stride < n:
        # compose map i with map i - stride; each tuple is evaluated before it is assigned
        hi, lo = slice(stride, None), slice(None, n - stride)
        ai, bi, ci, di, aj, bj, cj, dj = a[hi], b[hi], c[hi], d[hi], a[lo], b[lo], c[lo], d[lo]
        e[hi], f[hi] = (
            ai[:, None] * e[lo] + bi[:, None] * f[lo] + e[hi],
            ci[:, None] * e[lo] + di[:, None] * f[lo] + f[hi],
        )
        a[hi], b[hi], c[hi], d[hi] = ai * aj + bi * cj, ai * bj + bi * dj, ci * aj + di * cj, ci * bj + di * dj
        stride *= 2
    return ImuSequence(z + e, seq.rate_hz, seq.t0_us)


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


def _scan_bias(s: np.ndarray, t: np.ndarray, b: int, l_min: int) -> tuple[float, int, int]:
    """Best (score, length) for one admissible bias over every admissible length,
    plus the number of lengths scanned.

    Cumulative sums over the channel-summed absolute difference yield the score
    of every window length in one pass; ties prefer the larger length.
    """
    start_t = max(0, b)
    start_s = start_t - b
    overlap = min(s.shape[0] - start_s, t.shape[0] - start_t)
    diff = np.abs(s[start_s : start_s + overlap] - t[start_t : start_t + overlap]).sum(axis=1)
    csum = np.cumsum(diff)
    lengths = np.arange(l_min, overlap + 1)
    scores = csum[l_min - 1 :] / (CHANNELS * lengths)
    best = scores.min()
    best_l = int(lengths[scores == best].max())
    return float(best), best_l, len(lengths)


def _search_biases(
    s: np.ndarray, t: np.ndarray, biases: range, l_min: int
) -> tuple[int, int, float, int]:
    """Best (bias, length, score) over ``biases``, plus the cells scanned.  Ties
    break by (score, larger length, smaller |bias|, smaller bias)."""
    best_key = None
    best = None
    scanned = 0
    for b in biases:
        score, length, count = _scan_bias(s, t, b, l_min)
        scanned += count
        key = (score, -length, abs(b), b)
        if best_key is None or key < best_key:
            best_key = key
            best = (b, length, score)
    return (*best, scanned)


def _coarse_to_fine(
    s_levels: list[np.ndarray],
    t_levels: list[np.ndarray],
    pool_factor: int,
    search_radius: int,
    l_min_fraction: float,
    rate_hz: float,
) -> Registration:
    """The (bias, length) search over pyramid levels given coarsest first, each
    ``pool_factor`` times finer than the one before.

    A bias is admissible when it leaves an overlap of at least ``l_min_fraction``
    of the shorter sequence.  The first level scans every admissible bias; each
    finer level scans the admissible biases within +/- search_radius * pool_factor
    of the upscaled incumbent.  With search_radius >= 1 that window always meets
    the admissible range, because each level is at least pool_factor times longer
    than the one before.
    """
    bias = None
    evaluations = 0
    for s, t in zip(s_levels, t_levels):
        ns, nt = s.shape[0], t.shape[0]
        l_min = max(1, math.ceil(l_min_fraction * min(ns, nt)))
        biases = range(-(ns - l_min), nt - l_min + 1)
        if bias is not None:
            center, radius = bias * pool_factor, search_radius * pool_factor
            biases = range(max(center - radius, biases.start), min(center + radius + 1, biases.stop))
        bias, length, score, scanned = _search_biases(s, t, biases, l_min)
        evaluations += scanned
    return Registration(bias, round(bias * 1_000_000 / rate_hz), length, score, evaluations)


def _check_pair(source: ImuSequence, target: ImuSequence, l_min_fraction: float) -> None:
    if not 0 < l_min_fraction <= 1:
        raise ValueError("l_min_fraction must be in (0, 1]")
    if source.rate_hz != target.rate_hz:
        raise ValueError("source and target rates differ")


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
    _check_pair(source, target, l_min_fraction)
    if search_radius < 1:
        raise ValueError("search_radius must be >= 1")
    s_levels = [level.data for level in reversed(build_pyramid(source, pool_factor))]
    t_levels = [level.data for level in reversed(build_pyramid(target, pool_factor))]
    return _coarse_to_fine(s_levels, t_levels, pool_factor, search_radius, l_min_fraction, source.rate_hz)


def register_exhaustive(
    source: ImuSequence, target: ImuSequence, l_min_fraction: float = 0.5
) -> Registration:
    """Full level-0 scan over every admissible bias and length: ``register``'s
    search on a one-level pyramid, the reference the hierarchy is checked
    against.  ``tests/test_imu.py`` checks the shared per-bias scan against a
    two-loop score."""
    _check_pair(source, target, l_min_fraction)
    # pool factor and radius only act between levels, so a one-level search ignores them
    return _coarse_to_fine([source.samples], [target.samples], 1, 0, l_min_fraction, source.rate_hz)
