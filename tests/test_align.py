import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import textured_image
from evseen import align
from evseen.align import (
    PATCH_RADIUS,
    RANSAC_BLOCK,
    AffineTransform,
    Keypoint,
    _box3,
    _draw_triples,
    _nms3,
    _smooth3,
    _subpixel,
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


def loop_subpixel(r: np.ndarray, y: int, x: int) -> tuple[float, float]:
    """Quadratic peak refinement of one keypoint, in scalar arithmetic."""
    c = float(r[y, x])
    left, right, up, down = float(r[y, x - 1]), float(r[y, x + 1]), float(r[y - 1, x]), float(r[y + 1, x])
    gx, gy = (right - left) / 2, (down - up) / 2
    hxx, hyy = right - 2 * c + left, down - 2 * c + up
    hxy = (float(r[y + 1, x + 1]) - float(r[y + 1, x - 1]) - float(r[y - 1, x + 1]) + float(r[y - 1, x - 1])) / 4
    det = hxx * hyy - hxy * hxy
    if not (hxx < 0 and det > 0):
        return float(x), float(y)
    ox = min(max((hxy * gy - hyy * gx) / det, -0.5), 0.5)
    oy = min(max((hxy * gx - hxx * gy) / det, -0.5), 0.5)
    return x + ox, y + oy


def loop_detect_keypoints(img: RgbImage, max_count: int, harris_k: float = 0.04) -> list[Keypoint]:
    """``detect_keypoints`` with the per-keypoint descriptor and refinement loop
    that its stacked patch gather and stacked refinement replace."""
    gray = img.values.mean(axis=2)
    gy, gx = np.gradient(_smooth3(gray))
    sxx, syy, sxy = _box3(gx * gx), _box3(gy * gy), _box3(gx * gy)
    response = (sxx * syy - sxy * sxy) - harris_k * (sxx + syy) ** 2
    peaks = _nms3(response) & (response > 1e-9)
    peaks[:PATCH_RADIUS, :] = peaks[-PATCH_RADIUS:, :] = False
    peaks[:, :PATCH_RADIUS] = peaks[:, -PATCH_RADIUS:] = False
    ys, xs = np.nonzero(peaks)
    keypoints = []
    for idx in np.lexsort((xs, ys, -response[ys, xs]))[:max_count]:
        y, x = int(ys[idx]), int(xs[idx])
        patch = gray[y - PATCH_RADIUS : y + PATCH_RADIUS + 1, x - PATCH_RADIUS : x + PATCH_RADIUS + 1]
        d = patch.reshape(-1) - patch.mean()
        norm = float(np.linalg.norm(d))
        if norm < 1e-12:
            continue
        keypoints.append(Keypoint(*loop_subpixel(response, y, x), float(response[y, x]), d / norm))
    return keypoints


def assert_keypoint_parity(img: RgbImage, max_count: int) -> None:
    got, want = detect_keypoints(img, max_count), loop_detect_keypoints(img, max_count)
    assert len(got) == len(want)
    for field in ("x", "y", "response"):
        assert np.array_equal([getattr(k, field) for k in got], [getattr(k, field) for k in want])
    if want:
        assert np.array_equal(np.stack([k.descriptor for k in got]), np.stack([k.descriptor for k in want]))


def _solve_one(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    e1, e2 = src[1] - src[0], src[2] - src[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if abs(det) < 1e-9:
        return None
    f1, f2 = dst[1] - dst[0], dst[2] - dst[0]
    g00 = (f1[0] * e2[1] - f2[0] * e1[1]) / det
    g01 = (f2[0] * e1[0] - f1[0] * e2[0]) / det
    g10 = (f1[1] * e2[1] - f2[1] * e1[1]) / det
    g11 = (f2[1] * e1[0] - f1[1] * e2[0]) / det
    tx = dst[0, 0] - (g00 * src[0, 0] + g01 * src[0, 1])
    ty = dst[0, 1] - (g10 * src[0, 0] + g11 * src[0, 1])
    if abs(g00 * g11 - g01 * g10) <= 1e-9:  # the singularity test of AffineTransform
        return None
    return np.array([[g00, g01, tx], [g10, g11, ty]])


def loop_draw_triples(rng: np.random.Generator, n: int, iterations: int) -> list[tuple[int, int, int]]:
    """Every hypothesis's triple from one ``rng.integers`` call, each row mapped
    to distinct indices by stepping past the indices already taken."""
    triples = []
    for i0, i1, i2 in rng.integers(0, (n, n - 1, n - 2), size=(iterations, 3)).tolist():
        i1 += i1 >= i0
        for taken in sorted((i0, i1)):
            i2 += i2 >= taken
        triples.append((i0, i1, i2))
    return triples


def sequential_ransac(src_points, dst_points, iterations=1000, inlier_px=2.0, seed=0) -> AffineTransform:
    """The one-hypothesis-at-a-time loop that ``ransac_affine``'s blocked drawing
    and scoring replace."""
    src = np.asarray(src_points, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst_points, dtype=np.float64).reshape(-1, 2)
    if src.shape != dst.shape:
        raise ValueError("source/destination point counts differ")
    n = src.shape[0]
    if n < 3:
        raise ValueError("need at least 3 point pairs")
    if iterations < 1:
        raise ValueError(f"RANSAC needs at least one iteration, got {iterations}")
    if not (math.isfinite(inlier_px) and inlier_px > 0):
        raise ValueError(f"inlier threshold must be finite and positive, got {inlier_px}")
    rng = np.random.default_rng(seed)
    best_key = best_model = best_inliers = None
    solved = False
    for it, triple in enumerate(loop_draw_triples(rng, n, iterations)):
        idx = list(triple)
        model = _solve_one(src[idx], dst[idx])
        if model is None:
            continue
        solved = True
        err = np.linalg.norm(src @ model[:, :2].T + model[:, 2] - dst, axis=1)
        inliers = err <= inlier_px
        count = int(inliers.sum())
        if count < 3:
            continue
        key = (-count, float(err[inliers].sum()), it)
        if best_key is None or key < best_key:
            best_key, best_model, best_inliers = key, model, inliers
    if best_model is None:
        if solved:
            raise ValueError(f"RANSAC failed: no hypothesis reached 3 inliers within {inlier_px} px")
        raise ValueError("RANSAC failed: every sampled triple was collinear or fit a singular affine")
    s_in, d_in = src[best_inliers], dst[best_inliers]
    fit, *_ = np.linalg.lstsq(np.hstack([s_in, np.ones((len(s_in), 1))]), d_in, rcond=None)
    refit = fit.T

    def sse(model: np.ndarray) -> float:
        return float(((s_in @ model[:, :2].T + model[:, 2] - d_in) ** 2).sum())

    invertible = abs(refit[0, 0] * refit[1, 1] - refit[0, 1] * refit[1, 0]) > 1e-9
    return AffineTransform(refit if invertible and sse(refit) < sse(best_model) else best_model)


def _outcome(fit, *args):
    try:
        return fit(*args).matrix.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def assert_ransac_parity(src, dst, iterations, inlier_px, seed=0):
    args = (src, dst, iterations, inlier_px, seed)
    assert _outcome(ransac_affine, *args) == _outcome(sequential_ransac, *args)


def affine_set(seed: int, n: int, outlier_fraction: float, noise: float = 0.0, grid: bool = False):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 128, (n, 2)).astype(float) if grid else rng.uniform(0, 128, (n, 2))
    dst = src @ np.array([[1.02, 0.03], [-0.03, 0.98]]) + np.array([2.5, -1.25]) + rng.normal(0, noise, (n, 2))
    out = rng.random(n) < outlier_fraction
    dst[out] = rng.uniform(0, 128, (int(out.sum()), 2))
    return src, dst


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

    @pytest.mark.parametrize("max_count", [0, -1, -5])
    def test_non_positive_max_count_rejected(self, max_count):
        with pytest.raises(ValueError, match=f"keypoint count must be at least 1, got {max_count}"):
            detect_keypoints(textured_image(0, 32, 32), max_count)


class TestSubpixel:
    @staticmethod
    def quadratic(hxx, hxy, hyy, x0, y0):
        """A 32x32 response, the quadratic with this Hessian and its vertex at (x0, y0)."""
        yy, xx = np.indices((32, 32), dtype=np.float64)
        dx, dy = xx - x0, yy - y0
        return 5.0 + 0.5 * hxx * dx * dx + hxy * dx * dy + 0.5 * hyy * dy * dy

    @pytest.mark.parametrize("x0, y0", [(15.3, 16.8), (15.0, 16.0), (14.7, 16.35), (15.2, 15.9)])
    def test_vertex_of_a_quadratic_peak(self, x0, y0):
        r = self.quadratic(-1.0, 0.3, -2.0, x0, y0)
        y, x = np.unravel_index(r.argmax(), r.shape)
        px, py = _subpixel(r, np.array([y]), np.array([x]))
        # central differences are exact on a quadratic, up to rounding
        assert abs(px[0] - x0) < 1e-9 and abs(py[0] - y0) < 1e-9

    def test_offset_clamped_to_half_a_pixel(self):
        # the vertex sits 0.9 px right of and 1.2 px above the sampled pixel
        r = self.quadratic(-1.0, 0.0, -1.0, 15.9, 14.8)
        px, py = _subpixel(r, np.array([16]), np.array([15]))
        assert (px[0], py[0]) == (15.5, 15.5)

    @pytest.mark.parametrize(
        "hxx, hxy, hyy",
        [
            (1.0, 0.0, 1.0),  # a pit
            (-1.0, 0.0, 1.0),  # a saddle with a falling x curvature
            (-1.0, 2.0, -1.0),  # both curvatures fall, but the cross term makes a saddle
            (0.0, 0.0, -1.0),  # a ridge: flat along x
            (-1.0, 1.0, -1.0),  # a ridge along the diagonal: zero Hessian determinant
        ],
    )
    def test_not_negative_definite_keeps_integer_position(self, hxx, hxy, hyy):
        r = self.quadratic(hxx, hxy, hyy, 15.3, 16.2)
        px, py = _subpixel(r, np.array([16, 10]), np.array([15, 20]))
        assert px.tolist() == [15.0, 20.0] and py.tolist() == [16.0, 10.0]


class TestDescriptorParity:
    """``detect_keypoints`` against the per-keypoint loop: equal arrays, bit for bit."""

    @pytest.mark.parametrize("max_count", [1, 7, 200, 5000])
    def test_textures(self, max_count):
        for seed in range(3):
            assert_keypoint_parity(textured_image(seed, 64, 96), max_count)

    def test_checkerboard_ties(self):
        yy, xx = np.indices((48, 56))
        board = ((yy // 6 % 2) ^ (xx // 6 % 2)).astype(float)
        assert_keypoint_parity(RgbImage(np.stack([board] * 3, axis=-1)), 400)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(16, 48),
        width=st.integers(16, 48),
        max_count=st.integers(1, 300),
    )
    def test_random_textures(self, seed, height, width, max_count):
        rng = np.random.default_rng(seed)
        assert_keypoint_parity(RgbImage(rng.uniform(0.0, 1.0, (height, width, 3))), max_count)


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


class TestDraws:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_distinct_and_in_range(self, n):
        idx = _draw_triples(np.random.default_rng(n), n, 5000)
        assert idx.shape == (5000, 3)
        assert idx.min() >= 0 and idx.max() < n
        assert (idx[:, 0] != idx[:, 1]).all() and (idx[:, 0] != idx[:, 2]).all() and (idx[:, 1] != idx[:, 2]).all()

    def test_uniform_over_ordered_triples(self):
        idx = _draw_triples(np.random.default_rng(0), 4, 24_000)
        triples, counts = np.unique(idx, axis=0, return_counts=True)
        assert len(triples) == 24
        # 49.73 is the 0.999 quantile of chi-square with 23 degrees of freedom
        assert ((counts - 1000.0) ** 2 / 1000.0).sum() < 49.73

    @pytest.mark.parametrize("n", [3, 4, 17, 189])
    def test_hypotheses_do_not_depend_on_the_block_size(self, monkeypatch, n):
        src, dst = affine_set(n, n, 0.3, noise=0.4)
        whole = _draw_triples(np.random.default_rng(7), n, 300)
        fits = set()
        for block in (1, 7, 128, 1000):
            drawn = []

            def recording(rng, n, size):
                drawn.append(_draw_triples(rng, n, size))
                return drawn[-1]

            monkeypatch.setattr(align, "RANSAC_BLOCK", block)
            monkeypatch.setattr(align, "_draw_triples", recording)
            fits.add(ransac_affine(src, dst, 300, 2.0, seed=7).matrix.tobytes())
            assert [len(d) for d in drawn] == [min(block, 300 - s) for s in range(0, 300, block)]
            assert np.array_equal(np.concatenate(drawn), whole)
        assert len(fits) == 1


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
        with pytest.raises(ValueError, match="every sampled triple was collinear"):
            ransac_affine(src, src + 1.0, 50, 2.0, seed=0)

    def test_singular_hypotheses_skipped(self):
        # the one triple is not collinear, but its destination is: every model is singular
        with pytest.raises(ValueError, match="every sampled triple was collinear or fit a singular affine"):
            ransac_affine([[0, 0], [10, 0], [0, 10]], [[0, 0], [1, 1], [2, 2]], 10)

    def test_singular_refit_skipped(self):
        # every hypothesis has all four inliers and is invertible, but the
        # least-squares refit over them has a zero y-on-y slope (det 0)
        src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        dst = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.5], [10.0, -0.5]])
        t = ransac_affine(src, dst, 50, 2.0)
        assert np.abs(t.apply(src) - dst).max() <= 2.0

    def test_no_hypothesis_with_three_inliers(self):
        # every hypothesis is solvable, but its own three points miss by rounding error;
        # on about half of such point sets some drawn triple's model lands on all
        # three of its points exactly (3 inliers at any threshold), so these points
        # are ones on which none of the 50 drawn triples does
        rng = np.random.default_rng(4)
        src = rng.uniform(0, 100, (30, 2))
        dst = src @ np.array([[1.1, -0.1], [0.1, 0.9]]) + np.array([5.0, -3.0]) + rng.normal(0, 1.0, (30, 2))
        with pytest.raises(ValueError, match="no hypothesis reached 3 inliers within 1e-300 px"):
            ransac_affine(src, dst, 50, 1e-300, seed=0)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_non_positive_iterations_rejected(self, iterations):
        src = np.random.default_rng(0).uniform(0, 50, (10, 2))
        with pytest.raises(ValueError, match=f"at least one iteration, got {iterations}"):
            ransac_affine(src, src + 1.0, iterations, 2.0)

    @pytest.mark.parametrize("inlier_px", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_inlier_threshold_rejected(self, inlier_px):
        src = np.random.default_rng(0).uniform(0, 50, (10, 2))
        with pytest.raises(ValueError, match="inlier threshold must be finite and positive"):
            ransac_affine(src, src + 1.0, 50, inlier_px)


class TestRansacParity:
    """``ransac_affine`` against the sequential loop: the same matrix bytes, or
    the same error type and message."""

    @pytest.mark.parametrize("seed", range(4))
    def test_outliers(self, seed):
        assert_ransac_parity(*affine_set(seed, 150, 0.4, noise=0.3), 1000, 2.0, seed)

    def test_subpixel_coordinates(self):
        src, dst = affine_set(10, 90, 0.2, noise=0.05)
        assert_ransac_parity(src + 0.123456789, dst - 1e-7, 700, 0.25, 3)

    def test_three_pairs(self):
        src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        assert_ransac_parity(src, src @ np.array([[1.2, -0.2], [0.3, 0.8]]) + 1.5, 50, 2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_iteration(self, seed):
        assert_ransac_parity(*affine_set(seed, 20, 0.3), 1, 2.0, seed)

    def test_collinear_heavy(self):
        src, dst = affine_set(4, 60, 0.1)
        src[:55] = np.stack([np.arange(55.0), 2.0 * np.arange(55.0) + 1.0], axis=1)
        assert_ransac_parity(src, dst, 500, 2.0, 1)
        assert_ransac_parity(src[:55], dst[:55], 300, 2.0, 1)  # every triple collinear

    def test_no_hypothesis_reaches_three_inliers(self):
        src, dst = affine_set(5, 30, 0.0, noise=1.0)
        assert_ransac_parity(src, dst, 300, 1e-300, 0)

    def test_singular_models(self):
        src, dst = affine_set(9, 40, 0.2)
        dst[:30, 1] = 0.5 * dst[:30, 0]  # three of every four destinations on one line
        assert_ransac_parity(src, dst, 400, 2.0, 3)
        src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        dst = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 0.5], [10.0, -0.5]])
        assert_ransac_parity(src, dst, 50, 2.0)  # the refit is singular
        assert_ransac_parity(src[:3], [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], 10, 2.0)  # every model is

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_many_tied_best_counts(self, noise):
        # integer grid points under a pure shift: every hypothesis through
        # three inliers counts every inlier, so the err sum and then the
        # iteration break the ties
        src, _ = affine_set(6, 80, 0.0, grid=True)
        dst = src + np.array([3.0, -2.0]) + np.random.default_rng(6).normal(0, noise, src.shape)
        dst[::7] += 40.0
        assert_ransac_parity(src, dst, 600, 2.0, 2)

    @pytest.mark.parametrize("order_seed", [14, 73, 110])
    def test_error_sums_that_round_by_order(self, order_seed):
        # two translations, 60 px apart, each with three exact pairs, one
        # 0.5 px miss and three 4e-17 px misses: equal error sums in exact
        # arithmetic, so the tie is decided by how the inlier errors are
        # summed (a sum over a zero-filled row picks the other translation
        # for these orders)
        base = [(1.0, 0.0, 0.0), (2.0, 3.0, 0.0), (5.0, 1.0, 0.0), (3.0, 4.0, 0.5)]
        base += [(0.0, 2.0 + i, 4e-17) for i in range(3)]
        pts = np.array([(x, y + 10 * g, x + d, y + 70 * g) for g in (0, 1) for x, y, d in base])
        pts = pts[np.random.default_rng(order_seed).permutation(len(pts))]
        assert_ransac_parity(pts[:, :2], pts[:, 2:], 300, 1.0)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * RANSAC_BLOCK + 5])
    def test_more_hypotheses_than_one_block(self, extra):
        assert_ransac_parity(*affine_set(7, 70, 0.5, noise=0.4), RANSAC_BLOCK + extra, 1.0, 5)

    def test_identity_pairs(self):
        src, _ = affine_set(8, 100, 0.0)
        assert_ransac_parity(src, src.copy(), 1000, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 60),
        iterations=st.integers(1, 3 * RANSAC_BLOCK),
        inlier_px=st.sampled_from([1e-300, 0.5, 2.0, 8.0]),
        outlier_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        noise=st.sampled_from([0.0, 0.5]),
        grid=st.booleans(),
    )
    def test_random_sets(self, seed, n, iterations, inlier_px, outlier_fraction, noise, grid):
        src, dst = affine_set(seed, n, outlier_fraction, noise, grid)
        assert_ransac_parity(src, dst, iterations, inlier_px, seed % 1000)


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
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_keypoints": 0}, "keypoint count must be at least 1, got 0"),
            ({"max_keypoints": -5}, "keypoint count must be at least 1, got -5"),
            ({"ratio": 0.0}, "ratio must be in (0, 1]"),
            ({"ratio": 1.5}, "ratio must be in (0, 1]"),
            ({"ratio": float("nan")}, "ratio must be in (0, 1]"),
            ({"iterations": 0}, "RANSAC needs at least one iteration, got 0"),
            ({"iterations": -3}, "RANSAC needs at least one iteration, got -3"),
            ({"inlier_px": float("nan")}, "inlier threshold must be finite and positive, got nan"),
            ({"inlier_px": float("inf")}, "inlier threshold must be finite and positive, got inf"),
            ({"inlier_px": 0.0}, "inlier threshold must be finite and positive, got 0.0"),
            ({"inlier_px": -1.0}, "inlier threshold must be finite and positive, got -1.0"),
        ],
    )
    def test_settings_rejected_before_detection(self, monkeypatch, kwargs, message):
        def unreachable(*args, **kw):
            raise AssertionError("detect_keypoints ran before the settings were checked")

        monkeypatch.setattr(align, "detect_keypoints", unreachable)
        img = textured_image(4, 32, 32)
        with pytest.raises(ValueError) as caught:
            evaluate_alignment(img, img, **kwargs)
        assert str(caught.value) == message

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

    def test_subpixel_accuracy_over_random_warps(self):
        # a seeded rotation of up to 2 degrees about the centre plus a shift of
        # up to 4 px, as the benchmark draws them; integer keypoints missed the
        # closed form by more than 0.1 px on 2 of these 60
        for seed in range(60):
            img = textured_image(seed)
            rng = np.random.default_rng([seed, 1])
            deg = rng.uniform(-2.0, 2.0)
            tx, ty = rng.uniform(-4.0, 4.0, 2)
            t = rotation_about_center(deg, img.width, img.height, tx, ty)
            report = evaluate_alignment(img, warp_affine(img, t))
            true_mean, _ = mean_displacement(t, img.width, img.height)
            assert abs(report.mean_px - true_mean) < 0.1, seed

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
