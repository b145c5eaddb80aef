"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the test results.
"""

import time

import numpy as np
import pytest

import evseen.autodiff as ad
from conftest import count_instantiated, shifted_imu_pair, textured_image
from evseen import formats
from evseen.autodiff import Tensor, max_grad_error
from evseen.align import (
    detect_keypoints,
    evaluate_alignment,
    match_keypoints,
    mean_displacement,
    ransac_affine,
    warp_affine,
)
from evseen.events import EventStream, simulate_events, voxelize
from evseen.imaging import RadianceField, RawImage, RgbImage, brightness
from evseen.imu import ImuSequence, register, register_exhaustive
from evseen.pairing import SceneRecording, enumerate_pairs
from evseen.seenet import (
    CALIBRATION_CONFIG,
    SeeNetConfig,
    _forward_tensor,
    forward,
    init_params,
    load_params,
    loss,
    parameter_count,
    save_params,
    train_toy,
)
from test_align import rotation_about_center


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --------------------------------------------------------------------- 1 & 2


@pytest.fixture(scope="module")
def imu_suite():
    cases = []
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(6000, 10001))
        shift = int(rng.integers(-2000, 2001))
        sigma = float(rng.uniform(0.002, 0.01))
        source, target, true_shift = shifted_imu_pair(1000 + trial, n=n, shift=shift, sigma=sigma)
        tic = time.perf_counter()
        bounded = register(source, target)
        bounded_seconds = time.perf_counter() - tic
        exh = register_exhaustive(source, target)
        cases.append(
            {
                "n": n,
                "true": true_shift,
                "bounded": bounded,
                "exh": exh,
                "seconds": bounded_seconds,
            }
        )
    return cases


def test_criterion_1_imu_oracle_equivalence(imu_suite):
    mismatches = 0
    worst_ratio = 0.0
    worst_seconds = 0.0
    for case in imu_suite:
        bounded, exh = case["bounded"], case["exh"]
        mismatches += (bounded.bias_samples, bounded.length, bounded.score) != (exh.bias_samples, exh.length, exh.score)
        worst_ratio = max(worst_ratio, bounded.evaluations / exh.evaluations)
        worst_seconds = max(worst_seconds, case["seconds"])
    ok = mismatches == 0 and worst_ratio < 0.10 and worst_seconds < 2.0
    report(
        "criterion 1 (IMU oracle equivalence)",
        ok,
        f"50 cases: {mismatches} differ from the oracle in bias, length or score, "
        f"max eval ratio {worst_ratio:.3f}, max wall {worst_seconds:.2f}s",
    )


def test_criterion_2_millisecond_timing(imu_suite):
    worst_us = max(abs(c["bounded"].bias_us - c["true"] * 1000) for c in imu_suite)
    report(
        "criterion 2 (millisecond-class timing)",
        worst_us <= 1000,
        f"max |bias_us error| {worst_us} us over 50 cases",
    )


# ------------------------------------------------------------------------- 3


def test_criterion_3_spatial_pipeline_closure():
    img = textured_image(80)
    truth = rotation_about_center(1.0, img.width, img.height, tx=3.0, ty=-2.0)
    true_mean, _ = mean_displacement(truth, img.width, img.height)
    warped = warp_affine(img, truth)

    clean = evaluate_alignment(img, warped)
    clean_err = abs(clean.mean_px - true_mean)

    kps_a = detect_keypoints(img, 300)
    kps_b = detect_keypoints(warped, 300)
    matches = match_keypoints(kps_a, kps_b, 0.8)
    src = np.array([[kps_a[i].x, kps_a[i].y] for i, _ in matches])
    dst = np.array([[kps_b[j].x, kps_b[j].y] for _, j in matches])
    rng = np.random.default_rng(5)
    corrupt = rng.random(len(src)) < 0.30
    dst_bad = dst.copy()
    dst_bad[corrupt] = rng.uniform(0, img.width, (int(corrupt.sum()), 2))
    robust = ransac_affine(src, dst_bad, 1000, 2.0, seed=3)
    robust_mean, _ = mean_displacement(robust, img.width, img.height)
    robust_err = abs(robust_mean - true_mean)

    identity = evaluate_alignment(img, img)

    ok = (
        clean_err < 0.1
        and robust_err < 0.3
        and identity.mean_px == 0.0
        and identity.inlier_count == identity.match_count
    )
    report(
        "criterion 3 (spatial pipeline closure)",
        ok,
        f"clean err {clean_err:.4f}px, 30%-outlier err {robust_err:.4f}px, "
        f"identity mean {identity.mean_px}",
    )


# ------------------------------------------------------------------------- 4


def test_criterion_4_event_model_analytics():
    rng = np.random.default_rng(7)
    count_ok = True
    for _ in range(1000):
        lo, hi = rng.uniform(0.01, 1.0, 2)
        c = float(rng.uniform(0.05, 0.5))
        field = RadianceField(
            np.array([lo, hi]).reshape(2, 1, 1), np.array([0, 1000], dtype=np.int64)
        )
        stream = simulate_events(field, c)
        expected = int(np.floor(abs(np.log(hi) - np.log(lo)) / c))
        count_ok &= len(stream) == expected

    values = rng.uniform(0.1, 1.0, (8, 12, 12))
    times = np.arange(8, dtype=np.int64) * 700
    base = simulate_events(RadianceField(values, times), 0.2, floor=1e-6)
    scale_ok = True
    for alpha in (0.125, 0.03, 9.0):
        scaled = simulate_events(
            RadianceField(values * alpha, times), 0.2, floor=1e-6 * alpha
        )
        scale_ok &= (
            (base.xs == scaled.xs).all()
            and (base.ys == scaled.ys).all()
            and (base.ts == scaled.ts).all()
            and (base.ps == scaled.ps).all()
        )
    report(
        "criterion 4 (event-model analytics)",
        count_ok and scale_ok,
        f"1000 log-step counts exact: {count_ok}, scaling bit-identical: {scale_ok}",
    )


# ------------------------------------------------------------------------- 5


def test_criterion_5_voxel_conservation():
    rng = np.random.default_rng(11)
    conserved = True
    for _ in range(100):
        n = int(rng.integers(1, 500))
        bins = int(rng.integers(1, 20))
        stream = EventStream(
            16,
            16,
            rng.integers(0, 16, n),
            rng.integers(0, 16, n),
            rng.integers(-100, 20_000, n),
            rng.choice([-1, 1], n),
        )
        grid = voxelize(stream, bins, 0, 15_000)
        total = float(stream.ps.sum())
        gap = abs(grid.values.sum() - total)
        conserved &= gap <= 1e-6 * max(1.0, abs(total))
    center = voxelize(EventStream(4, 4, [1], [2], [300], [1]), 10, 0, 900)
    center_ok = center.values[2, 1, 3] == 1.0 and center.values.sum() == 1.0
    report(
        "criterion 5 (voxel conservation)",
        conserved and center_ok,
        f"100 random streams conserved: {conserved}, bin-center unit mass: {center_ok}",
    )


# ------------------------------------------------------------------------- 6


def test_criterion_6_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_prim = 0.0
    shapes = [(3,), (4, 2), (2, 3), (5,), (3, 3), (1, 4), (6,), (2, 2), (4, 4), (2, 5)]
    for shape in shapes:
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=shape))
        checks = [
            lambda t: ad.mean((t + w) * w),
            lambda t: ad.mean(t * w),
            lambda t: ad.mean(ad.relu(t) * w),
            lambda t: ad.mean(ad.sigmoid(t) * w),
            lambda t: ad.mean(ad.softmax_lastdim(t) * w),
            lambda t: ad.mean(t) * 2.0,
            lambda t: ad.mean(ad.reshape(t, (t.size,)) * ad.reshape(w, (w.size,))),
            lambda t: ad.mean(ad.concat_lastdim([t * w, t]) * ad.concat_lastdim([w, w * w])),
        ]
        big = Tensor(rng.normal(size=(3,) + shape))  # t broadcast as a row over a new leading axis
        checks.append(lambda t: ad.mean((t + big) * big + (big + t * -1.0) * t))
        if len(shape) == 1:
            # t as the gain, then as the shift, of a layer norm over 3 rows of C
            rows = Tensor(rng.normal(size=(3,) + shape))
            checks.append(lambda t: ad.mean(ad.layer_norm(rows, t, w, 1e-5) * big))
            checks.append(lambda t: ad.mean(ad.layer_norm(rows, w, t, 1e-5) * big))
        if len(shape) == 2:
            m = Tensor(rng.normal(size=(shape[1], 3)))
            checks.append(lambda t: ad.mean(ad.matmul(t, m)))
            heads = 2 if shape[1] % 2 == 0 else 1
            queries = Tensor(rng.normal(size=(5, shape[1])))
            checks.append(lambda t: ad.mean(ad.attention(t, t, t, heads) * w))
            checks.append(lambda t: ad.mean(ad.attention(queries, t, t * 0.5, heads) * queries))
            gamma, beta = Tensor(rng.normal(size=shape[1:])), Tensor(rng.normal(size=shape[1:]))
            checks.append(lambda t: ad.mean(ad.layer_norm(t, gamma, beta, 1e-5) * w))
        for f in checks:
            worst_prim = max(worst_prim, max_grad_error(f, x, h=1e-5))
    # the training loss on H x W x 3 images, single rows and columns included; the
    # default weights (lambda1 = 2 lambda2) run at the wide epsilon only, since at
    # 1e-3 their image and gradient terms can cancel to a gradient too small for
    # central differences to resolve to 1e-4 relative
    for shape in [(4, 5, 3), (1, 6, 3), (6, 1, 3), (1, 1, 3)]:
        x = Tensor(rng.uniform(0, 1, shape), requires_grad=True)
        target = rng.uniform(0, 1, shape)
        for lambda1, lambda2, epsilon in [(1.3, 0.7, 1e-3), (0.1, 3.3, 1e-3), (1.0, 0.5, 0.3)]:
            f = lambda t: ad.charbonnier_gradient_loss(t, target, lambda1, lambda2, epsilon)
            worst_prim = max(worst_prim, max_grad_error(f, x, h=1e-5))
    # attention with more queries than one block: 7 queries over 3 keys run in
    # blocks of 3, 3 and 1 rows while the block size is patched down
    block_rng = np.random.default_rng(101)
    many = Tensor(block_rng.normal(size=(7, 4)))
    keys = Tensor(block_rng.normal(size=(3, 4)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "ATTENTION_BLOCK", 9)
        for x, f in [
            (many, lambda t: ad.mean(ad.attention(t, keys, keys * 0.5, 2) * many)),
            (keys, lambda t: ad.mean(ad.attention(many, t, t * 0.5, 2) * many)),
        ]:
            worst_prim = max(worst_prim, max_grad_error(f, Tensor(x.data.copy(), requires_grad=True), h=1e-5))

    from evseen.seenet import end_to_end_grad_errors

    cfg = SeeNetConfig(channels=8, heads=2, loop_count=2, voxel_bins=4, pos_dim=4)
    errors = end_to_end_grad_errors(cfg, height=6, width=6)
    worst_e2e = max(errors.values())
    elapsed = time.perf_counter() - start
    ok = worst_prim < 1e-4 and worst_e2e < 1e-3 and elapsed < 60.0
    report(
        "criterion 6 (gradient suite)",
        ok,
        f"primitives max err {worst_prim:.2e} (<1e-4), end-to-end {worst_e2e:.2e} (<1e-3), "
        f"{elapsed:.1f}s (<60s)",
    )


# ------------------------------------------------------------------------- 7


def test_criterion_7_loss_identities():
    rng = np.random.default_rng(13)
    img = RgbImage(rng.uniform(0, 1, (7, 9, 3)))
    same = loss(img, img, lambda1=1.0, lambda2=0.5, epsilon=1e-3)
    identity_gap = abs(same - 1.0 * 1e-3)

    base = rng.uniform(0.0, 0.5, (6, 6, 3))
    shifted = loss(RgbImage(base + 0.25), RgbImage(base), 1.0, 0.5, 0.0)
    shift_gap = abs(shifted - 1.0 * 0.25)
    ok = identity_gap <= 1e-12 and shift_gap <= 1e-12
    report(
        "criterion 7 (loss identities)",
        ok,
        f"loss(I,I) gap {identity_gap:.2e} (<=1e-12), uniform-shift gap {shift_gap:.2e}",
    )


# --------------------------------------------------------------------- 8 & 9


def _dataset_mean_loss(pair_set, config, params):
    total, n = 0.0, 0
    vox = {}
    for inp, tgt, k in pair_set.frame_pairs():
        if id(inp) not in vox:
            ev = inp.events
            vox[id(inp)] = voxelize(ev, config.voxel_bins, int(ev.ts.min()), int(ev.ts.max()))
        pred = _forward_tensor(
            inp.frames[k], vox[id(inp)], brightness(tgt.frames[k]), config, params
        )
        total += float(
            ad.charbonnier_gradient_loss(
                pred, tgt.frames[k].values, config.lambda1, config.lambda2, config.epsilon
            ).data
        )
        n += 1
    return total / n


def test_criterion_8_training_dynamics(toy_training):
    recordings, pair_set, config, params, losses = toy_training
    before = _dataset_mean_loss(pair_set, config, init_params(config))
    after = _dataset_mean_loss(pair_set, config, params)
    reduction_ok = after <= 0.5 * before

    _, losses_again = train_toy(pair_set, config, steps=500, lr=0.15)
    determinism_ok = losses == losses_again
    report(
        "criterion 8 (toy training dynamics)",
        reduction_ok and determinism_ok,
        f"scene loss {before:.4f} -> {after:.4f} ({after / before:.1%}), "
        f"identical seeded curves: {determinism_ok}",
    )


def test_criterion_9_prompt_control(toy_training):
    recordings, pair_set, config, params, _ = toy_training
    low = recordings[0]
    ev = low.events
    grid = voxelize(ev, config.voxel_bins, int(ev.ts.min()), int(ev.ts.max()))
    prompts = (0.3, 0.4, 0.5, 0.6, 0.7)
    outs = [brightness(forward(low.frames[0], grid, b, config, params)) for b in prompts]
    increasing = all(outs[i] < outs[i + 1] for i in range(len(outs) - 1))
    # strictly increasing over a strictly increasing prompt grid <=> Spearman rho = 1
    report(
        "criterion 9 (prompt control)",
        increasing,
        "brightness " + " -> ".join(f"{v:.3f}" for v in outs) + f", strictly increasing: {increasing}",
    )


# ------------------------------------------------------------------------ 10


def test_criterion_10_pairing_arithmetic():
    def stub(level):
        frames = [RgbImage(np.full((4, 4, 3), level))]
        from evseen.pairing import classify_lighting

        return SceneRecording("s", classify_lighting(frames), frames, EventStream.empty(4, 4), 1.0)

    paper_scene = [stub(0.1), stub(0.5), stub(0.6), stub(0.9)]
    six = len(enumerate_pairs(paper_scene))

    formula_ok = True
    for n_low in range(0, 6):
        for n_norm in range(1, 6 - n_low):
            for n_high in range(0, 6 - n_low - n_norm):
                total = n_low + n_norm + n_high
                if total > 5:
                    continue
                scene = (
                    [stub(0.1) for _ in range(n_low)]
                    + [stub(0.5) for _ in range(n_norm)]
                    + [stub(0.9) for _ in range(n_high)]
                )
                formula_ok &= len(enumerate_pairs(scene)) == n_norm * (total - 1)
    ok = six == 6 and formula_ok
    report(
        "criterion 10 (pairing arithmetic)",
        ok,
        f"(1 low, 2 normal, 1 high) -> {six} pairs; formula verified for totals <= 5: {formula_ok}",
    )


# ------------------------------------------------------------------------ 11


def test_criterion_11_parameter_accounting():
    rng = np.random.default_rng(21)
    closed_ok = True
    for _ in range(10):
        heads = int(rng.choice([1, 2, 4]))
        cfg = SeeNetConfig(
            channels=heads * int(rng.integers(2, 10)),
            heads=heads,
            loop_count=int(rng.integers(1, 6)),
            decoder_layers=int(rng.integers(2, 7)),
            voxel_bins=int(rng.integers(1, 16)),
            pos_dim=int(rng.integers(3, 16)),
        )
        closed_ok &= parameter_count(cfg) == count_instantiated(init_params(cfg))
    calibration = parameter_count(CALIBRATION_CONFIG)
    band_ok = 1_800_000 <= calibration <= 2_000_000
    report(
        "criterion 11 (parameter accounting)",
        closed_ok and band_ok,
        f"closed form == enumeration on 10 configs: {closed_ok}; "
        f"calibration config {calibration / 1e6:.2f}M in [1.80M, 2.00M]: {band_ok}",
    )


# ------------------------------------------------------------------------ 12


def test_criterion_12_format_round_trips(tmp_path):
    rng = np.random.default_rng(23)
    results = {}

    stream = EventStream(
        32, 24, rng.integers(0, 32, 80), rng.integers(0, 24, 80),
        np.sort(rng.integers(0, 90_000, 80)), rng.choice([-1, 1], 80),
    )
    p1, p2 = tmp_path / "e1", tmp_path / "e2"
    formats.write_events(stream, p1)
    formats.write_events(formats.read_events(p1), p2)
    results["events"] = p1.read_bytes() == p2.read_bytes()

    c1, c2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    formats.write_events_csv(stream, c1)
    formats.write_events_csv(formats.read_events_csv(c1, 32, 24), c2)
    results["events_csv"] = c1.read_bytes() == c2.read_bytes()

    seq = ImuSequence(rng.normal(size=(50, 6)), 1000.0, 777)
    i1, i2 = tmp_path / "i1.csv", tmp_path / "i2.csv"
    formats.write_imu_csv(seq, i1)
    formats.write_imu_csv(formats.read_imu_csv(i1), i2)
    results["imu_csv"] = i1.read_bytes() == i2.read_bytes()

    arr = rng.normal(size=(3, 5, 2))
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    formats.write_evsf(arr, t1)
    formats.write_evsf(formats.read_evsf(t1), t2)
    results["tensor"] = t1.read_bytes() == t2.read_bytes()

    cfg = SeeNetConfig(channels=8, heads=2, voxel_bins=4, pos_dim=4)
    params = init_params(cfg)
    k1, k2 = tmp_path / "k1", tmp_path / "k2"
    save_params(params, cfg, k1)
    loaded, loaded_cfg = load_params(k1)
    save_params(loaded, loaded_cfg, k2)
    results["checkpoint"] = k1.read_bytes() == k2.read_bytes()

    img = RgbImage(rng.uniform(0, 1, (9, 7, 3)))
    m1, m2 = tmp_path / "m1.ppm", tmp_path / "m2.ppm"
    formats.write_ppm(img, m1)
    formats.write_ppm(formats.read_ppm(m1), m2)
    results["ppm"] = m1.read_bytes() == m2.read_bytes()

    raw = RawImage(rng.integers(0, 4096, (6, 8)).astype(np.uint16), 12)
    g1, g2 = tmp_path / "g1.pgm", tmp_path / "g2.pgm"
    formats.write_pgm(raw, g1)
    formats.write_pgm(formats.read_pgm(g1), g2)
    results["pgm"] = g1.read_bytes() == g2.read_bytes()

    ok = all(results.values())
    report(
        "criterion 12 (format round-trips)",
        ok,
        ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in results.items()),
    )
