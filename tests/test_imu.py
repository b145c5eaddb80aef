import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import shifted_imu_pair, smooth_trajectory
from evseen.formats import registration_line
from evseen.imu import (
    CHANNELS,
    ImuSequence,
    KalmanParams,
    Registration,
    _bias_bounds,
    _scan_bias,
    _search_biases,
    kalman_denoise,
    match_score,
    register,
    register_exhaustive,
)


def two_loop_score(s, t, b, l):
    """Deliberately naive re-implementation of the alignment score."""
    start_t = max(0, b)
    start_s = start_t - b
    total = 0.0
    for i in range(l):
        for ch in range(6):
            total += abs(s[start_s + i, ch] - t[start_t + i, ch])
    return total / (l * 6)


def sequential_kalman(seq: ImuSequence, params: KalmanParams = KalmanParams()) -> ImuSequence:
    """The per-sample Kalman loop that ``kalman_denoise``'s prefix scan replaces."""
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


def _row_major_scan_bias(s: np.ndarray, t: np.ndarray, b: int, l_min: int) -> tuple[float, int, int]:
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


def row_major_search(s: np.ndarray, t: np.ndarray, biases: range, l_min: int) -> tuple[int, int, float, int]:
    """The (n, 6) row-major bias scan that the channel-major ``_search_biases`` replaces."""
    best_key = None
    best = None
    scanned = 0
    for b in biases:
        score, length, count = _row_major_scan_bias(s, t, b, l_min)
        scanned += count
        key = (score, -length, abs(b), b)
        if best_key is None or key < best_key:
            best_key = key
            best = (b, length, score)
    return (*best, scanned)


def admissible(ns: int, nt: int, fraction: float) -> tuple[range, int]:
    """Every admissible bias and the shortest admissible length, as the search has them."""
    l_min = max(1, math.ceil(fraction * min(ns, nt)))
    return range(-(ns - l_min), nt - l_min + 1), l_min


def assert_scan_parity(s, t, fraction=0.5, biases=None):
    full, l_min = admissible(s.shape[0], t.shape[0], fraction)
    biases = full if biases is None else biases
    assert _search_biases(s, t, biases, l_min) == row_major_search(s, t, biases, l_min)


def assert_kalman_parity(samples, params):
    seq = ImuSequence(samples)
    got = kalman_denoise(seq, params).samples
    want = sequential_kalman(seq, params).samples
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(samples).max())


class TestKalman:
    def test_constant_fixed_point(self):
        seq = ImuSequence(np.full((200, 6), 3.25))
        out = kalman_denoise(seq, KalmanParams(1e-2, 0.5))
        assert (out.samples == 3.25).all()

    def test_white_noise_variance_reduction(self):
        rng = np.random.default_rng(5)
        seq = ImuSequence(rng.normal(0, 1, (10_000, 6)))
        out = kalman_denoise(seq, KalmanParams(1e-4, 1.0))
        assert out.samples.var() < 0.2 * seq.samples.var()

    def test_ramp_tracked_exactly_after_burn_in(self):
        slope = 0.01
        ramp = np.tile(np.arange(500.0)[:, None] * slope, (1, 6))
        out = kalman_denoise(ImuSequence(ramp))
        assert np.abs(out.samples[100:] - ramp[100:]).max() < 1e-3

    def test_measurement_noise_to_zero_recovers_input(self):
        rng = np.random.default_rng(1)
        seq = ImuSequence(rng.normal(0, 1, (50, 6)))
        out = kalman_denoise(seq, KalmanParams(1e-3, 1e-12))
        assert np.abs(out.samples - seq.samples).max() < 1e-6

    def test_length_preserved(self):
        seq = ImuSequence(np.zeros((77, 6)))
        assert len(kalman_denoise(seq)) == 77

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KalmanParams(0.0, 1.0)
        with pytest.raises(ValueError):
            KalmanParams(1.0, -1.0)

    @pytest.mark.parametrize("q, r", [(np.nan, 0.1), (np.inf, 0.1), (1e-3, np.nan), (1e-3, np.inf)])
    def test_non_finite_params_rejected(self, q, r):
        with pytest.raises(ValueError, match="finite"):
            KalmanParams(q, r)


# the default gain track reaches its fixed point at the 84th step, (1e-4, 1.0) at the
# 264th, and (1e-3, 1e-12) not within 10,000 steps
@pytest.mark.parametrize("n", [1, 2, 83, 84, 85, 10_000])
@pytest.mark.parametrize("q, r", [(1e-3, 0.1), (1e-4, 1.0), (1e-3, 1e-12)])
def test_kalman_matches_sequential_loop(n, q, r):
    rng = np.random.default_rng(n)
    assert_kalman_parity(smooth_trajectory(rng, n) + rng.normal(0, 0.01, (n, 6)), KalmanParams(q, r))


def test_kalman_matches_sequential_loop_offset():
    rng = np.random.default_rng(4)
    assert_kalman_parity(1e6 + rng.normal(0, 1, (3000, 6)), KalmanParams())


def test_kalman_matches_sequential_loop_before_fixed_point():
    # 200 steps end before the 264th, where this gain track reaches its fixed point
    assert_kalman_parity(np.random.default_rng(6).normal(0, 1, (200, 6)), KalmanParams(1e-4, 1.0))


class TestMatchScore:
    def test_identical(self):
        s = np.random.default_rng(0).normal(size=(50, 6))
        assert match_score(s, s, 0, 50) == 0.0

    def test_constant_offset(self):
        s = np.random.default_rng(0).normal(size=(50, 6))
        assert match_score(s, s + 1.0, 0, 50) == pytest.approx(1.0)

    def test_against_two_loop_oracle(self):
        rng = np.random.default_rng(42)
        s = rng.normal(size=(40, 6))
        t = rng.normal(size=(35, 6))
        for b, l in [(0, 20), (5, 30), (-8, 25), (10, 25)]:
            assert match_score(s, t, b, l) == pytest.approx(two_loop_score(s, t, b, l), abs=1e-9)

    def test_out_of_bounds_rejected(self):
        s = np.zeros((10, 6))
        with pytest.raises(ValueError):
            match_score(s, s, 8, 5)

    def test_sums_channels_then_samples_in_order(self):
        # 200 samples: np.mean would sum pairwise, the scan sums in sequence
        rng = np.random.default_rng(4)
        s, t = rng.normal(size=(230, 6)), rng.normal(size=(210, 6))
        for b, l in [(0, 200), (7, 200), (-20, 200), (-20, 1)]:
            start_t = max(0, b)
            start_s = start_t - b
            total = 0.0
            for i in range(l):
                row = 0.0
                for ch in range(6):
                    row += abs(s[start_s + i, ch] - t[start_t + i, ch])
                total += row
            assert match_score(s, t, b, l) == total / (6 * l)


class TestScanParity:
    """``_search_biases`` against the row-major reference: exact tuple equality."""

    @pytest.mark.parametrize("ns, nt", [(40, 40), (30, 50), (50, 30), (37, 23)])
    def test_equal_and_unequal_lengths(self, ns, nt):
        rng = np.random.default_rng(ns * 100 + nt)
        assert_scan_parity(rng.normal(size=(ns, 6)), rng.normal(size=(nt, 6)))

    def test_bias_ranges_crossing_zero(self):
        rng = np.random.default_rng(3)
        s, t = rng.normal(size=(60, 6)), rng.normal(size=(45, 6))
        for biases in [range(-7, 8), range(-1, 1), range(-15, 3), range(0, 20)]:
            assert_scan_parity(s, t, 0.5, biases)

    @pytest.mark.parametrize("ns, nt", [(20, 20), (20, 33), (33, 20)])
    def test_single_admissible_length(self, ns, nt):
        rng = np.random.default_rng(7)
        assert_scan_parity(rng.normal(size=(ns, 6)), rng.normal(size=(nt, 6)), 1.0)

    @pytest.mark.parametrize("nt", [1, 5])
    def test_one_sample(self, nt):
        rng = np.random.default_rng(1)
        s, t = rng.normal(size=(1, 6)), rng.normal(size=(nt, 6))
        for fraction in (0.5, 1.0):
            assert_scan_parity(s, t, fraction)
            assert_scan_parity(t, s, fraction)

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_constant_sequences_tie_everywhere(self, value):
        s, t = np.full((24, 6), value), np.full((31, 6), value)
        assert_scan_parity(s, t)
        assert_scan_parity(t, s)
        assert_scan_parity(s, np.full((24, 6), value / 2))

    def test_overflow_to_inf(self):
        rng = np.random.default_rng(2)
        s, t = rng.normal(size=(40, 6)), rng.normal(size=(40, 6))
        s[5, 2], t[30, 4], t[12, 0] = 1e308, -1e308, 1.7e308
        high, low = np.full((10, 6), 1e308), np.full((10, 6), -1e308)
        with np.errstate(over="ignore"):
            assert_scan_parity(s, t)
            assert_scan_parity(high, low)
            assert _search_biases(high, low, *admissible(10, 10, 0.5))[2] == np.inf

    @settings(max_examples=60, deadline=None)
    @given(
        ns=st.integers(1, 64),
        nt=st.integers(1, 64),
        fraction=st.sampled_from([0.05, 0.3, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
    )
    def test_random_pairs(self, ns, nt, fraction, seed, scale):
        rng = np.random.default_rng(seed)
        s, t = rng.normal(0, scale, (ns, 6)), rng.normal(0, scale, (nt, 6))
        # repeated values give equal scores, which must tie alike
        t[rng.random(nt) < 0.3] = s[0]
        assert_scan_parity(s, t, fraction)


class TestRegister:
    def test_exact_copy(self):
        rng = np.random.default_rng(3)
        seq = ImuSequence(smooth_trajectory(rng, 4000))
        reg = register(seq, ImuSequence(seq.samples.copy()))
        assert reg.bias_samples == 0
        assert reg.length == 4000
        assert reg.score == 0.0

    def test_known_delay_137(self):
        source, target, shift = shifted_imu_pair(20, n=20_000, shift=137, sigma=1e-3)
        reg = register(source, target)
        assert abs(reg.bias_samples - 137) <= 1
        assert abs(reg.bias_us - 137_000) <= 1000

    def test_oracle_equivalence_small(self):
        for seed in range(5):
            source, target, shift = shifted_imu_pair(seed, n=4000, sigma=0.005)
            got = register(source, target)
            ref = register_exhaustive(source, target)
            assert _result(got) == _result(ref)
            assert got.evaluations < ref.evaluations

    def test_exhaustive_matches_two_loop_argmin_tiny(self):
        # independent brute force over every (b, l) cell on a tiny pair
        rng = np.random.default_rng(9)
        master = smooth_trajectory(rng, 400)
        s = ImuSequence(master[50:250] + rng.normal(0, 0.01, (200, 6)))
        t = ImuSequence(master[20:220] + rng.normal(0, 0.01, (200, 6)))
        ref = register_exhaustive(s, t, l_min_fraction=0.5)
        best = None
        l_min = 100
        for b in range(-(200 - l_min), 200 - l_min + 1):
            start_t = max(0, b)
            start_s = start_t - b
            overlap = min(200 - start_s, 200 - start_t)
            for l in range(l_min, overlap + 1):
                score = two_loop_score(s.samples, t.samples, b, l)
                key = (score, -l, abs(b), b)
                if best is None or key < best[0]:
                    best = (key, b, l)
        assert ref.bias_samples == best[1]
        assert ref.length == best[2]
        assert ref.score == pytest.approx(best[0][0], abs=1e-9)

    def test_symmetry(self):
        source, target, _ = shifted_imu_pair(31, n=5000, sigma=0.01)
        fwd = register(source, target)
        rev = register(target, source)
        assert fwd.bias_samples == -rev.bias_samples
        assert fwd.length == rev.length
        assert fwd.score == pytest.approx(rev.score, rel=1e-9)

    def test_shift_equivariance_noiseless(self):
        rng = np.random.default_rng(8)
        master = smooth_trajectory(rng, 6000)
        source = ImuSequence(master[1000:5000])
        target = ImuSequence(master[800:4800])
        base = register(source, target).bias_samples
        k = 64
        padded = np.vstack([np.tile(master[800], (k, 1)), master[800:4800]])
        shifted = register(source, ImuSequence(padded)).bias_samples
        assert shifted == base + k

    def test_scale_argmin_invariance(self):
        source, target, _ = shifted_imu_pair(12, n=4000, sigma=0.01)
        a = register(source, target)
        b = register(
            ImuSequence(source.samples * 3.5), ImuSequence(target.samples * 3.5)
        )
        assert (a.bias_samples, a.length) == (b.bias_samples, b.length)
        assert b.score == pytest.approx(3.5 * a.score, rel=1e-9)

    def test_bias_us_conversion(self):
        source, target, _ = shifted_imu_pair(2, n=4000, shift=250, sigma=0.005)
        reg = register(source, target)
        assert reg.bias_us == reg.bias_samples * 1000

    @pytest.mark.parametrize("rate", [np.inf, np.nan, 0.0, -1000.0])
    def test_non_finite_or_non_positive_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate must be finite and positive"):
            ImuSequence(np.zeros((2000, 6)), rate_hz=rate)

    def test_rate_mismatch_rejected(self):
        a = ImuSequence(np.zeros((2000, 6)), rate_hz=1000.0)
        b = ImuSequence(np.zeros((2000, 6)), rate_hz=500.0)
        with pytest.raises(ValueError):
            register(a, b)

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        a = ImuSequence(rng.normal(size=(1100, 6)))
        b = ImuSequence(rng.normal(size=(1100, 6)))
        with pytest.raises(ValueError):
            register(a, b, l_min_fraction=1.5)

    def test_unequal_lengths_exhaustive_matches_two_loop_argmin(self):
        # the target is longer, and the best bias leaves the whole of the target's tail
        rng = np.random.default_rng(11)
        master = smooth_trajectory(rng, 200)
        s = master[50:80] + rng.normal(0, 0.01, (30, 6))
        t = master[20:70] + rng.normal(0, 0.01, (50, 6))
        for a, b, want in [(s, t, 30), (t, s, -30)]:
            ref = register_exhaustive(ImuSequence(a), ImuSequence(b), l_min_fraction=0.5)
            l_min = 15
            best = None
            for bias in range(-(len(a) - l_min), len(b) - l_min + 1):
                start_b = max(0, bias)
                start_a = start_b - bias
                overlap = min(len(a) - start_a, len(b) - start_b)
                for l in range(l_min, overlap + 1):
                    score = two_loop_score(a, b, bias, l)
                    key = (score, -l, abs(bias), bias)
                    if best is None or key < best[0]:
                        best = (key, bias, l)
            assert best[1] == want
            assert (ref.bias_samples, ref.length) == (best[1], best[2])
            assert ref.score == pytest.approx(best[0][0], abs=1e-9)

    def test_unequal_lengths_known_shift(self):
        rng = np.random.default_rng(6)
        master = smooth_trajectory(rng, 6000)
        source = ImuSequence(master[2500:4500] + rng.normal(0, 0.005, (2000, 6)))
        target = ImuSequence(master[0:5000] + rng.normal(0, 0.005, (5000, 6)))
        assert abs(register(source, target).bias_samples - 2500) <= 1
        assert abs(register(target, source).bias_samples + 2500) <= 1


# exact (bias_samples, bias_us, length, score, evaluations) on shifted_imu_pair(seed, n=2500),
# keyed by (seed, l_min_fraction); (0, 0.75) is pinned in both to show the bias is the oracle's
PINNED_REGISTER = {
    (0, 0.5): (1250, 1250000, 1250, 0.3971506508143809, 142845),
    (0, 0.3): (1403, 1403000, 776, 0.011102850239744395, 6950),
    (0, 0.75): (625, 625000, 1875, 0.6608080785437301, 349995),
    (1, 0.5): (-107, -107000, 2255, 0.01106139629931022, 12584),
    (1, 0.3): (-107, -107000, 2255, 0.01106139629931022, 18084),
    (1, 0.75): (-107, -107000, 2255, 0.01106139629931022, 5709),
    (2, 0.5): (1250, 1250000, 1250, 0.33791835264642456, 140622),
    (2, 0.3): (1351, 1351000, 1116, 0.01131905664180868, 5200),
    (2, 0.75): (300, 300000, 2200, 0.5502283027757022, 144561),
}
PINNED_EXHAUSTIVE = {
    (0, 0.5): (1250, 1250000, 1250, 0.3971506508143809, 1565001),
    (0, 0.3): (1403, 1403000, 776, 0.011102850239744395, 3066001),
    (0, 0.75): (625, 625000, 1875, 0.6608080785437301, 391876),
    (1, 0.5): (-107, -107000, 2255, 0.01106139629931022, 1565001),
    (2, 0.3): (1351, 1351000, 1116, 0.01131905664180868, 3066001),
}


def _fields(reg):
    return (reg.bias_samples, reg.bias_us, reg.length, reg.score, reg.evaluations)


def _result(reg):
    return (reg.bias_samples, reg.length, reg.score)


def assert_score_reads_back(reg, source, target):
    assert match_score(source.samples, target.samples, reg.bias_samples, reg.length) == reg.score


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_register_pinned(seed):
    source, target, _ = shifted_imu_pair(seed, n=2500)
    for (s, fraction), want in PINNED_REGISTER.items():
        if s == seed:
            reg = register(source, target, fraction)
            assert _fields(reg) == want
            assert_score_reads_back(reg, source, target)


@pytest.mark.parametrize("seed, fraction", sorted(PINNED_EXHAUSTIVE))
def test_register_exhaustive_pinned(seed, fraction):
    source, target, _ = shifted_imu_pair(seed, n=2500)
    reg = register_exhaustive(source, target, fraction)
    assert _fields(reg) == PINNED_EXHAUSTIVE[(seed, fraction)]
    assert_score_reads_back(reg, source, target)


def test_registration_fields_and_line():
    names = [f.name for f in dataclasses.fields(Registration)]
    assert names == ["bias_samples", "bias_us", "length", "score", "evaluations"]
    reg = Registration(-107, -107000, 2255, 0.01106139629931022, 5709)
    assert registration_line(reg) == "-107,-107000,2255,0.01106139629931022"


def benchmark_generator_pair(seed: int) -> tuple[ImuSequence, ImuSequence, int]:
    """The benchmark's IMU pair: 10k samples cut 2000 into a 14,001-sample trajectory,
    target lagging by a shift in [-2000, 2000], noise sigma 0.01, both Kalman-denoised."""
    rng = np.random.default_rng(seed)
    shift = int(rng.integers(-2000, 2001))
    master = smooth_trajectory(rng, 14_001)
    noise = rng.normal(0, 0.01, (2, 10_000, 6))
    source = ImuSequence(master[2000:12_000] + noise[0])
    target = ImuSequence(master[2000 - shift : 12_000 - shift] + noise[1])
    return kalman_denoise(source), kalman_denoise(target), shift


def test_register_seed_208_matches_oracle():
    # the true shift's basin is narrow here: a slow period away, at -3181, scores
    # lower than the truth once the pair is average-pooled by 1024
    source, target, shift = benchmark_generator_pair(208)
    got = register(source, target)
    assert _result(got) == _result(register_exhaustive(source, target))
    assert got.bias_samples == shift == 1564


def cut_pair(kind: str, rng: np.random.Generator, ns: int, nt: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Two views of one signal of the given kind, cut at offsets drawn from ``rng``.

    ``periodic`` repeats a noiseless block exactly, so scores tie at every period;
    ``offset`` adds a constant per-channel offset to the target, where each window's
    bound equals its absolute difference sum; ``constant`` ties every bias, with
    an offset or without.
    """
    n = ns + nt
    if kind == "periodic":
        master = np.resize(rng.normal(0, scale, (int(rng.integers(1, 300)), 6)), (n, 6))
    elif kind == "constant":
        master = np.tile(rng.normal(0, scale, 6), (n, 1))
    else:
        master = scale * smooth_trajectory(rng, n)
    a, c = int(rng.integers(0, nt + 1)), int(rng.integers(0, ns + 1))
    s, t = master[a : a + ns].copy(), master[c : c + nt].copy()
    if kind == "noisy":
        s += rng.normal(0, 0.01 * scale, s.shape)
        t += rng.normal(0, 0.01 * scale, t.shape)
    elif kind == "offset" or rng.random() < 0.5:
        t += rng.normal(0, scale, 6)
    return s, t


lengths = st.integers(1, 1000) | st.sampled_from([256, 512, 768])
pair_examples = given(
    ns=lengths,
    nt=lengths,
    fraction=st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0]),
    kind=st.sampled_from(["noisy", "periodic", "offset", "constant"]),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@pair_examples
def test_register_equals_exhaustive(ns, nt, fraction, kind, scale, seed):
    # covers lengths below one window (BOUND_WINDOW = 256), l_min below one window and exact ties
    source, target = (ImuSequence(x) for x in cut_pair(kind, np.random.default_rng(seed), ns, nt, scale))
    assert _result(register(source, target, fraction)) == _result(register_exhaustive(source, target, fraction))


@settings(max_examples=30, deadline=None)
@pair_examples
def test_bounds_never_exceed_a_bias_best_score(ns, nt, fraction, kind, scale, seed):
    s, t = cut_pair(kind, np.random.default_rng(seed), ns, nt, scale)
    biases, l_min = admissible(ns, nt, fraction)
    bounds = _bias_bounds(s, t, l_min)
    s_cm, t_cm = np.ascontiguousarray(s.T), np.ascontiguousarray(t.T)
    denom, buf = CHANNELS * np.arange(l_min, min(ns, nt) + 1), np.empty((2, min(ns, nt)))
    best = np.array([_scan_bias(s_cm, t_cm, b, l_min, denom, buf)[0] for b in biases])
    assert (bounds <= best).all()


@pytest.mark.parametrize("ns, nt", [(512, 768), (768, 512), (1024, 1024)])
def test_tight_bounds_keep_ties(ns, nt):
    # every bias scores mean |offset| and the window bound equals that up to rounding,
    # so only the rounding margin keeps the tie-break's choice, bias 0, in the scan
    rng = np.random.default_rng(3)
    value, offset = rng.normal(0, 1, 6), rng.normal(0, 1, 6)
    source, target = ImuSequence(np.tile(value, (ns, 1))), ImuSequence(np.tile(value + offset, (nt, 1)))
    for fraction in (0.5, 1.0):
        got = register(source, target, fraction)
        assert _result(got) == _result(register_exhaustive(source, target, fraction))
        assert got.bias_samples == 0
