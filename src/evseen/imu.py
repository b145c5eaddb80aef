"""Temporal registration of inertial streams.

Two 1000 Hz sequences recorded along the same trajectory differ by an unknown
constant offset.  The recovery pipeline is: per-channel constant-velocity Kalman
denoising (a gain track cut at its exact fixed point, then a log-depth prefix
scan of the affine state update: Blelloch 1990; Sarkka & Garcia-Fernandez 2021),
then an exact search for the bias b and matching length l minimizing the mean
per-sample L1 distance over the aligned overlap.

``register`` first bounds every score of each admissible bias from below with
window sums (the PAA bound of Keogh et al. 2001: |sum s - sum t| <= sum |s - t|
per channel over windows of ``BOUND_WINDOW`` aligned samples), then scans
whole biases in increasing-bound order, as the UCR suite cascades its bounds
(Rakthanmanon et al. 2012), and stops at the first bound strictly above the
incumbent's score.  Every bias left out scores strictly worse, so the result is
the one ``register_exhaustive`` finds by scanning every admissible bias and
length; that scan is the reference the bounded search is checked against.

The search copies its two sequences once into channel-major (6, n)
arrays, so each bias sums six contiguous rows into one buffer instead of
reducing a 6-wide inner axis.  The channels add in the order numpy sums a row,
so every score is bit-identical to the row-major scan; ``match_score`` is the
same kernel on one cell, so it reads back a registration's score exactly.

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
    "Registration",
    "kalman_denoise",
    "match_score",
    "register",
    "register_exhaustive",
]

CHANNELS = 6
# samples per window of the lower bound; it sets the search's speed, never its result
BOUND_WINDOW = 256


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
class Registration:
    bias_samples: int
    bias_us: int
    length: int
    score: float
    evaluations: int = 0  # (bias, length) cells scanned


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


def match_score(s: np.ndarray, t: np.ndarray, b: int, l: int) -> float:
    """Mean absolute difference over l aligned samples and all 6 channels, summed
    as the bias scan sums it, so the score of a registered cell reads back exactly."""
    start_t = max(0, b)
    start_s = start_t - b
    if l < 1:
        raise ValueError("window length must be positive")
    if start_s + l > s.shape[0] or start_t + l > t.shape[0]:
        raise ValueError(f"overlap window (b={b}, l={l}) does not fit both sequences")
    csum = _abs_diff_cumsum(s.T, t.T, start_s, start_t, np.empty(l), np.empty(l))
    return float(csum[-1] / (CHANNELS * l))


def _abs_diff_cumsum(
    s: np.ndarray, t: np.ndarray, start_s: int, start_t: int, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Running sums of sum_c |s[c, start_s + i] - t[c, start_t + i]| over the
    len(out) aligned samples of two channel-major (6, n) arrays, written into ``out``.

    Channels accumulate 0 to 5 in that order, then one sequential cumsum runs.
    """
    n = out.shape[0]
    np.subtract(s[0, start_s : start_s + n], t[0, start_t : start_t + n], out=out)
    np.abs(out, out=out)
    for c in range(1, CHANNELS):
        np.subtract(s[c, start_s : start_s + n], t[c, start_t : start_t + n], out=tmp)
        np.abs(tmp, out=tmp)
        np.add(out, tmp, out=out)
    return np.cumsum(out, out=out)


def _scan_bias(
    s: np.ndarray, t: np.ndarray, b: int, l_min: int, denom: np.ndarray, buf: np.ndarray
) -> tuple[float, int, int]:
    """Best (score, length) for one admissible bias over every admissible length,
    plus the number of lengths scanned.

    ``s`` and ``t`` are channel-major (6, n); ``denom`` holds 6 * l for
    l = l_min, l_min + 1, ...; ``buf`` is (2, n) scratch at least as long as the
    overlap.  Summing each channel's contiguous row into one buffer is the order
    numpy reduces a 6-wide row in (left to right), so the channel sums, and every
    score, are bit-identical to ``np.abs(diff).sum(axis=1)`` on the (n, 6)
    layout, without its slow 6-wide inner reduction.  Cumulative sums of the
    channel sums give the score of every length in one pass; ties prefer the
    larger length, the last occurrence of the minimum.
    """
    start_t = max(0, b)
    start_s = start_t - b
    overlap = min(s.shape[1] - start_s, t.shape[1] - start_t)
    csum = _abs_diff_cumsum(s, t, start_s, start_t, buf[0, :overlap], buf[1, :overlap])
    count = overlap - l_min + 1
    scores = csum[l_min - 1 :]
    np.divide(scores, denom[:count], out=scores)
    best = count - 1 - int(np.argmin(scores[::-1]))
    return float(scores[best]), l_min + best, count


def _window_sums(x: np.ndarray) -> np.ndarray:
    """Channel-major (6, n - BOUND_WINDOW + 1) sums of every ``BOUND_WINDOW``
    consecutive samples of an (n, 6) sequence, from one sequential prefix sum per channel."""
    prefix = np.zeros((CHANNELS, x.shape[0] + 1))
    np.cumsum(x.T, axis=1, out=prefix[:, 1:])
    return prefix[:, BOUND_WINDOW:] - prefix[:, :-BOUND_WINDOW]


def _shift_bounds(wx: np.ndarray, wy: np.ndarray, nx: int, ny: int, l_min: int, count: int) -> np.ndarray:
    """Lower bounds on every score of the shifts d = 0 .. count - 1 at which x[i]
    aligns with y[i + d], given the window sums of x and y.

    Window k of shift d covers aligned samples [kp, kp + p), so it starts at kp in
    x for every d and at d + kp in y: one contiguous slice of ``wy`` per k.  By the
    triangle inequality, the running sum L of sum_c |window sum of x - window sum
    of y| over the first K windows is at most the absolute difference sum of any
    length l >= Kp, so L / (6 * min(overlap, Kp + p - 1)) bounds the score of every
    length l with l // p == K.  Lengths shorter than one window are bounded at 0.
    """
    p = BOUND_WINDOW
    overlap = np.minimum(nx, ny - np.arange(count))
    bound = np.full(count, 0.0 if l_min < p else np.inf)
    total = np.zeros(count)
    for k in range(min(nx, ny) // p):
        last = (k + 1) * p + p - 1  # the longest length this window count bounds
        m = min(count, ny - (k + 1) * p + 1)  # the shifts whose overlap holds window k
        total[:m] += np.abs(wy[:, k * p : k * p + m] - wx[:, k * p, None]).sum(axis=0)
        if last >= l_min:
            np.minimum(bound[:m], total[:m] / (CHANNELS * np.minimum(overlap[:m], last)), out=bound[:m])
    return bound


def _bias_bounds(s: np.ndarray, t: np.ndarray, l_min: int) -> np.ndarray:
    """Lower bounds on the computed score of every length of each admissible bias
    -(ns - l_min) .. nt - l_min of two (n, 6) sequences, deflated by a rounding margin.

    The margin, with u = 2**-53, n the longer length and A the sum of |s| and |t|
    over every sample and channel: each prefix sum runs sequentially, so it is off
    by at most about n u times its channel's absolute sum, and each window's
    sum_c |window sum difference| by about e = 2 (n + 1) u A.  A length l >= Kp adds
    K <= l / p windows, so in score units the absolute error is at most
    e / (6p) = (n + 1) u A / (3p) for every bias and length.  The channel sums, the
    running sum over windows and the scan's own score add nonnegative terms, so the
    relative error of bound and score together stays below (2n + 15) u.  The bound
    is scaled by 1 - 4 (n + 8) u, twice that, and lowered by 2 (n + 1) u A / p, six
    times the absolute error, so it never exceeds the score the scan computes.  A
    bound that is not finite becomes -inf: that bias is always scanned.
    """
    ns, nt = s.shape[0], t.shape[0]
    ws, wt = _window_sums(s), _window_sums(t)
    ahead = _shift_bounds(ws, wt, ns, nt, l_min, nt - l_min + 1)  # bias d
    behind = _shift_bounds(wt, ws, nt, ns, l_min, ns - l_min + 1)  # bias -d
    bounds = np.concatenate([behind[:0:-1], ahead])
    n, u = max(ns, nt), np.finfo(np.float64).eps / 2
    size = float(np.abs(s).sum() + np.abs(t).sum())
    bounds = bounds * (1 - 4 * (n + 8) * u) - 2 * (n + 1) * u * size / BOUND_WINDOW
    return np.where(np.isfinite(bounds), bounds, -np.inf)


def _search_biases(
    s: np.ndarray, t: np.ndarray, biases: range, l_min: int, bounds: np.ndarray | None = None
) -> tuple[int, int, float, int]:
    """Best (bias, length, score) over ``biases`` for two (n, 6) sequences, plus the
    cells scanned.  Ties break by (score, larger length, smaller |bias|, smaller bias).

    ``bounds`` holds a lower bound on every score of each bias (all 0 when
    omitted).  Biases run in increasing-bound order and the scan stops at the
    first bound strictly above the incumbent's score: every bias left scores
    strictly worse, so ties still reach the tie-break and the result is the full scan's.
    """
    longest = min(s.shape[0], t.shape[0])  # no overlap is longer
    s, t = np.ascontiguousarray(s.T), np.ascontiguousarray(t.T)
    denom = CHANNELS * np.arange(l_min, longest + 1)
    buf = np.empty((2, longest))
    bounds = np.zeros(len(biases)) if bounds is None else bounds
    best = None  # the key (score, -length, |bias|, bias) of the incumbent
    scanned = 0
    for i in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[i] > best[0]:
            break
        b = biases[i]
        score, length, count = _scan_bias(s, t, b, l_min, denom, buf)
        scanned += count
        key = (score, -length, abs(b), b)
        if best is None or key < best:
            best = key
    return best[3], -best[1], best[0], scanned


def _registration(source: ImuSequence, target: ImuSequence, l_min_fraction: float, bounded: bool) -> Registration:
    """The search over every bias that leaves an overlap of at least
    ``l_min_fraction`` of the shorter sequence, with or without the lower bounds."""
    if not 0 < l_min_fraction <= 1:
        raise ValueError("l_min_fraction must be in (0, 1]")
    if source.rate_hz != target.rate_hz:
        raise ValueError("source and target rates differ")
    s, t = source.samples, target.samples
    l_min = max(1, math.ceil(l_min_fraction * min(len(source), len(target))))
    biases = range(-(len(source) - l_min), len(target) - l_min + 1)
    bounds = _bias_bounds(s, t, l_min) if bounded else None
    bias, length, score, scanned = _search_biases(s, t, biases, l_min, bounds)
    return Registration(bias, round(bias * 1_000_000 / source.rate_hz), length, score, scanned)


def register(source: ImuSequence, target: ImuSequence, l_min_fraction: float = 0.5) -> Registration:
    """Exact (bias, length) search minimizing the mean L1 distance: window-sum
    lower bounds order the biases and leave out every bias that cannot win, so the
    result equals ``register_exhaustive``'s in bias, length and score.  Ties break
    deterministically by (score, larger length, smaller |bias|, smaller bias)."""
    return _registration(source, target, l_min_fraction, bounded=True)


def register_exhaustive(
    source: ImuSequence, target: ImuSequence, l_min_fraction: float = 0.5
) -> Registration:
    """Full scan over every admissible bias and length, the reference ``register``
    is checked against.  ``tests/test_imu.py`` checks the shared per-bias scan
    against a two-loop score and, for exact equality, against the row-major scan."""
    return _registration(source, target, l_min_fraction, bounded=False)
