import numpy as np
import pytest

from conftest import textured_image
from evseen.align import (
    AffineTransform,
    detect_keypoints,
    evaluate_alignment,
    match_keypoints,
    mean_displacement,
    ransac_affine,
    warp_affine,
)
from evseen.imaging import RgbImage


def rotation_about_center(deg: float, width: int, height: int, tx: float = 0.0, ty: float = 0.0):
    th = np.deg2rad(deg)
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    c, s = np.cos(th), np.sin(th)
    return AffineTransform(
        np.array(
            [
                [c, -s, tx + cx - c * cx + s * cy],
                [s, c, ty + cy - s * cx - c * cy],
            ]
        )
    )


class TestDetect:
    def test_flat_image_empty(self):
        assert detect_keypoints(RgbImage(np.full((32, 32, 3), 0.5))) == []

    def test_white_square_corners(self):
        img = np.zeros((64, 64))
        img[20:40, 24:44] = 1.0
        kps = detect_keypoints(RgbImage(np.stack([img] * 3, axis=-1)), 8)
        assert len(kps) >= 4
        for cx, cy in [(24, 20), (43, 20), (24, 39), (43, 39)]:
            nearest = min(np.hypot(k.x - cx, k.y - cy) for k in kps[:4])
            assert nearest <= 1.0

    def test_checkerboard_interior_corners(self):
        yy, xx = np.indices((64, 64))
        board = ((yy // 8 % 2) ^ (xx // 8 % 2)).astype(float)
        kps = detect_keypoints(RgbImage(np.stack([board] * 3, axis=-1)), 400)
        assert len(kps) >= 40

    def test_descriptors_unit_norm(self):
        kps = detect_keypoints(textured_image(0), 100)
        for k in kps:
            assert np.linalg.norm(k.descriptor) == pytest.approx(1.0, abs=1e-9)

    def test_small_image_rejected(self):
        with pytest.raises(ValueError):
            detect_keypoints(RgbImage(np.zeros((8, 8, 3))))


class TestMatch:
    def test_identity_lists(self):
        kps = detect_keypoints(textured_image(1), 150)
        matches = match_keypoints(kps, kps, 0.8)
        assert len(matches) == len(kps)
        assert all(i == j for i, j in matches)

    def test_perturbed_descriptors(self):
        rng = np.random.default_rng(3)
        kps = detect_keypoints(textured_image(2), 250)
        assert len(kps) >= 200
        noisy = []
        for k in kps:
            d = k.descriptor + rng.normal(0, 1e-4, k.descriptor.shape)
            noisy.append(type(k)(k.x, k.y, k.response, d / np.linalg.norm(d)))
        matches = match_keypoints(kps, noisy, 0.8)
        identity = sum(1 for i, j in matches if i == j)
        assert identity >= 0.95 * len(kps)

    def test_disjoint_random_sets(self):
        rng = np.random.default_rng(5)
        from evseen.align import Keypoint

        def random_kps(n):
            out = []
            for _ in range(n):
                d = rng.normal(size=81)
                out.append(Keypoint(0.0, 0.0, 1.0, d / np.linalg.norm(d)))
            return out

        a, b = random_kps(100), random_kps(100)
        matches = match_keypoints(a, b, 0.5)
        assert len(matches) <= 5

    def test_empty_inputs(self):
        assert match_keypoints([], [], 0.8) == []

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            match_keypoints([], [], 0.0)


class TestRansac:
    def test_pure_translation(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(0, 50, (40, 2))
        dst = src + np.array([3.0, -2.0])
        t = ransac_affine(src, dst, 100, 2.0, seed=1)
        expected = np.array([[1, 0, 3], [0, 1, -2]], dtype=float)
        assert np.abs(t.matrix - expected).max() < 1e-6

    def test_affine_with_outliers(self):
        rng = np.random.default_rng(7)
        truth = np.array([[1.1, 0.1, 5.0], [-0.1, 0.9, -3.0]])
        src = rng.uniform(0, 100, (200, 2))
        dst = src @ truth[:, :2].T + truth[:, 2]
        outliers = rng.random(200) < 0.3
        dst[outliers] = rng.uniform(0, 100, (int(outliers.sum()), 2))
        t = ransac_affine(src, dst, 300, 2.0, seed=2)
        assert np.abs(t.matrix - truth).max() < 1e-3

    def test_three_exact_pairs_interpolate(self):
        src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        truth = np.array([[1.2, 0.3, 1.0], [-0.2, 0.8, 2.0]])
        dst = src @ truth[:, :2].T + truth[:, 2]
        t = ransac_affine(src, dst, 50, 2.0, seed=0)
        assert np.abs(t.apply(src) - dst).max() < 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(11)
        src = rng.uniform(0, 60, (80, 2))
        dst = src + rng.normal(0, 0.5, (80, 2))
        a = ransac_affine(src, dst, 200, 2.0, seed=9)
        b = ransac_affine(src, dst, 200, 2.0, seed=9)
        assert (a.matrix == b.matrix).all()

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            ransac_affine(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_collinear_rejected(self):
        src = np.array([[float(i), float(i)] for i in range(10)])
        with pytest.raises(ValueError):
            ransac_affine(src, src + 1.0, 50, 2.0, seed=0)


class TestDisplacement:
    def test_identity_zero(self):
        mean_px, max_px = mean_displacement(AffineTransform.identity(), 64, 48)
        assert mean_px == 0.0 and max_px == 0.0

    def test_translation_closed_form(self):
        t = AffineTransform(np.array([[1.0, 0.0, 3.0], [0.0, 1.0, -2.0]]))
        mean_px, max_px = mean_displacement(t, 100, 80)
        assert mean_px == pytest.approx(np.sqrt(13), abs=1e-9)
        assert max_px == pytest.approx(np.sqrt(13), abs=1e-9)

    def test_rotation_closed_form(self):
        # displacement of a rotation by theta about the centroid is
        # 2 sin(theta/2) * radius; the oracle evaluates the radius mean directly
        w, h = 346, 260
        deg = 0.1
        t = rotation_about_center(deg, w, h)
        mean_px, _ = mean_displacement(t, w, h)
        xs, ys = np.meshgrid(np.arange(w), np.arange(h))
        cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
        radii = np.hypot(xs - cx, ys - cy)
        expected = 2.0 * np.sin(np.deg2rad(deg) / 2.0) * radii.mean()
        assert mean_px == pytest.approx(expected, abs=1e-6)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            mean_displacement(AffineTransform.identity(), 0, 10)

    def test_transform_line_round_trip(self):
        t = AffineTransform(np.array([[1.1, 0.1, 5.0], [-0.1, 0.9, -3.0]]))
        back = AffineTransform.from_line(t.to_line())
        assert (back.matrix == t.matrix).all()
        assert back.to_line() == t.to_line()


class TestPipeline:
    def test_identity_pair_exact_zero(self):
        img = textured_image(4)
        report = evaluate_alignment(img, img)
        assert report.mean_px == 0.0
        assert report.max_px == 0.0
        assert report.inlier_count == report.match_count

    def test_known_affine_recovery(self):
        img = textured_image(5)
        t = rotation_about_center(1.0, img.width, img.height, tx=3.0, ty=-2.0)
        warped = warp_affine(img, t)
        report = evaluate_alignment(img, warped)
        true_mean, _ = mean_displacement(t, img.width, img.height)
        assert abs(report.mean_px - true_mean) < 0.1

    def test_report_carries_the_fitted_transform(self):
        img = textured_image(5)
        t = rotation_about_center(1.0, img.width, img.height, tx=3.0, ty=-2.0)
        report = evaluate_alignment(img, warp_affine(img, t))
        assert np.abs(report.transform.matrix[:, :2] - t.matrix[:, :2]).max() < 0.01
        assert mean_displacement(report.transform, img.width, img.height) == (report.mean_px, report.max_px)

    def test_translation_grid_shift_consistency(self):
        # composing a pure translation with a shift of the pixel grid origin
        # leaves the displacement field untouched
        t = AffineTransform(np.array([[1.0, 0.0, 4.0], [0.0, 1.0, 1.0]]))
        a = mean_displacement(t, 30, 20)
        b = mean_displacement(t, 60, 45)
        assert a[1] == b[1]  # per-pixel displacement is one constant
        assert a[0] == pytest.approx(b[0], abs=1e-12)
