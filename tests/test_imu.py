import numpy as np
import pytest

from conftest import shifted_imu_pair, smooth_trajectory
from evseen.imu import (
    CHANNELS,
    ImuSequence,
    KalmanParams,
    build_pyramid,
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


class TestPyramid:
    def test_exact_division_lengths(self):
        seq = ImuSequence(np.random.default_rng(0).normal(size=(64, 6)))
        levels = build_pyramid(seq, 4)
        assert [lv.data.shape[0] for lv in levels] == [64, 16, 4]
        assert [lv.pool_factor for lv in levels] == [1, 4, 16]

    def test_block_means_hand_computed(self):
        data = np.tile(np.arange(1.0, 9.0)[:, None], (1, 6))
        levels = build_pyramid(ImuSequence(data), 2)
        assert np.allclose(levels[1].data[:, 0], [1.5, 3.5, 5.5, 7.5])
        assert np.allclose(levels[2].data[:, 0], [2.5, 6.5])

    def test_block_mean_consistency(self):
        rng = np.random.default_rng(7)
        seq = ImuSequence(rng.normal(size=(132, 6)))
        levels = build_pyramid(seq, 5)
        manual = seq.samples[:130].reshape(26, 5, 6).mean(axis=1)
        assert np.abs(levels[1].data - manual).max() < 1e-9
        manual2 = manual[:25].reshape(5, 5, 6).mean(axis=1)
        assert np.abs(levels[2].data - manual2).max() < 1e-9

    def test_constant_stays_constant(self):
        seq = ImuSequence(np.full((100, 6), 2.0))
        for level in build_pyramid(seq, 3):
            assert np.allclose(level.data, 2.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_pyramid(ImuSequence(np.zeros((15, 6))), 4)


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
            hier = register(source, target)
            ref = register_exhaustive(source, target)
            assert abs(hier.bias_samples - ref.bias_samples) <= 1
            assert hier.score == pytest.approx(ref.score, rel=1e-9)
            assert hier.evaluations < ref.evaluations

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

    def test_evaluation_budget(self):
        pool, radius = 32, 2
        source, target, _ = shifted_imu_pair(4, n=8000, sigma=0.01)
        reg = register(source, target, pool, radius)
        n2s = 8000 // pool**2
        n2t = n2s
        l2_min = int(np.ceil(0.5 * n2s))
        coarse_biases = (n2s - l2_min) + (n2t - l2_min) + 1
        coarse_lengths = n2s - l2_min + 1
        local_biases = 2 * radius * pool + 1
        n1 = 8000 // pool
        l1_min = int(np.ceil(0.5 * n1))
        bound = (
            coarse_biases * coarse_lengths
            + local_biases * (n1 - l1_min + 1)
            + local_biases * (8000 - 4000 + 1)
        )
        assert reg.evaluations <= bound

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
        with pytest.raises(ValueError):
            register(a, b, search_radius=0)
        with pytest.raises(ValueError):
            register(ImuSequence(np.zeros((100, 6))), b, pool_factor=32)

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
# keyed by (seed, pool, radius, l_min_fraction) and (seed, l_min_fraction)
PINNED_REGISTER = {
    (0, 32, 2, 0.5): (1250, 1250000, 1250, 0.3971506508143809, 3854),
    (0, 16, 1, 0.3): (1403, 1403000, 776, 0.011102850239744395, 11833),
    (0, 8, 3, 0.75): (250, 250000, 1875, 0.6639554856428836, 20925),
    (1, 32, 2, 0.5): (-107, -107000, 2255, 0.01106139629931022, 150599),
    (1, 16, 1, 0.3): (-107, -107000, 2255, 0.01106139629931022, 57494),
    (1, 8, 3, 0.75): (-107, -107000, 2255, 0.01106139629931022, 28693),
    (2, 32, 2, 0.5): (1250, 1250000, 1250, 0.33791835264642456, 3854),
    (2, 16, 1, 0.3): (1351, 1351000, 1116, 0.01131905664180868, 14470),
    (2, 8, 3, 0.75): (300, 300000, 2200, 0.5502283027757022, 18181),
}
PINNED_EXHAUSTIVE = {
    (0, 0.5): (1250, 1250000, 1250, 0.3971506508143809, 1565001),
    (0, 0.3): (1403, 1403000, 776, 0.011102850239744395, 3066001),
    (1, 0.5): (-107, -107000, 2255, 0.01106139629931022, 1565001),
    (2, 0.3): (1351, 1351000, 1116, 0.01131905664180868, 3066001),
}


def _fields(reg):
    return (reg.bias_samples, reg.bias_us, reg.length, reg.score, reg.evaluations)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_register_pinned(seed):
    source, target, _ = shifted_imu_pair(seed, n=2500)
    for (s, pool, radius, fraction), want in PINNED_REGISTER.items():
        if s == seed:
            assert _fields(register(source, target, pool, radius, fraction)) == want


@pytest.mark.parametrize("seed, fraction", sorted(PINNED_EXHAUSTIVE))
def test_register_exhaustive_pinned(seed, fraction):
    source, target, _ = shifted_imu_pair(seed, n=2500)
    assert _fields(register_exhaustive(source, target, fraction)) == PINNED_EXHAUSTIVE[(seed, fraction)]
