"""Spatial alignment metric for image pairs.

Keypoints (Harris corners with normalized-patch descriptors) are matched by
exact nearest neighbor with a ratio test, an affine transform is fit by RANSAC,
and the reported metric is the mean displacement that transform induces over
every pixel center.  ``evaluate_alignment`` always uses ``detect_keypoints``;
descriptors have unit L2 norm and flat patches are discarded.

Each keypoint sits at the vertex of the quadratic through its 3x3 Harris
response (Brown & Lowe 2002), so the metric is not limited to whole pixels;
descriptors are gathered as one (k, 9, 9) patch array at the integer peaks.
RANSAC (Fischler & Bolles 1981) draws, solves and scores its hypotheses in
blocks of ``RANSAC_BLOCK``: one ``rng.integers`` call per block draws the
block's index triples, and the blocks continue one stream, so the hypotheses
do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imaging import RgbImage

__all__ = [
    "Keypoint",
    "AffineTransform",
    "AlignmentReport",
    "detect_keypoints",
    "match_keypoints",
    "ransac_affine",
    "mean_displacement",
    "evaluate_alignment",
    "warp_affine",
]

PATCH_RADIUS = 4  # descriptors are (2r+1) x (2r+1) intensity patches
RANSAC_BLOCK = 128  # hypotheses scored per stacked block; bounds the (block, n, 2) temporaries
HARRIS_K = 0.04  # trace weight of the Harris response det - k * trace^2


def _invertible(m: np.ndarray) -> np.ndarray:
    """Whether each (..., 2, 3) affine's linear part is far enough from singular."""
    return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]) > 1e-9


@dataclass
class Keypoint:
    x: float
    y: float
    response: float
    descriptor: np.ndarray


@dataclass(frozen=True)
class AffineTransform:
    """2x3 matrix mapping homogeneous (x, y, 1) to (x', y')."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (2, 3):
            raise ValueError("affine matrix must be 2x3")
        if not np.all(np.isfinite(m)):
            raise ValueError("affine matrix must be finite")
        if not _invertible(m):
            raise ValueError("affine linear part is singular")
        object.__setattr__(self, "matrix", m)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix[:, :2].T + self.matrix[:, 2]

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def to_line(self) -> str:
        """Six floats, row-major."""
        return ",".join(repr(float(v)) for v in self.matrix.reshape(-1))


@dataclass
class AlignmentReport:
    mean_px: float
    max_px: float
    inlier_count: int
    match_count: int
    transform: AffineTransform


def _to_gray(img: RgbImage) -> np.ndarray:
    return img.values.mean(axis=2)


def _box3(a: np.ndarray) -> np.ndarray:
    """3x3 box sum with zero padding."""
    p = np.pad(a, 1)
    out = np.zeros_like(a)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out += p[dy : dy + a.shape[0], dx : dx + a.shape[1]]
    return out


def _smooth3(a: np.ndarray) -> np.ndarray:
    """Separable 3x3 binomial blur with replicated edges; keeps the structure
    tensor full-rank on ideal saddle corners (e.g. checkerboards)."""
    p = np.pad(a, 1, mode="edge")
    horiz = 0.25 * p[:, :-2] + 0.5 * p[:, 1:-1] + 0.25 * p[:, 2:]
    return 0.25 * horiz[:-2] + 0.5 * horiz[1:-1] + 0.25 * horiz[2:]


def _nms3(r: np.ndarray) -> np.ndarray:
    p = np.pad(r, 1, constant_values=-np.inf)
    best = np.full_like(r, -np.inf)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            best = np.maximum(best, p[dy : dy + r.shape[0], dx : dx + r.shape[1]])
    return r >= best


def _subpixel(r: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the vertex of the quadratic through each peak's 3x3 response
    (central differences).  Only a peak whose Hessian is negative definite
    moves, by at most half a pixel per axis; any other keeps its pixel."""
    c = r[ys, xs]
    left, right, up, down = r[ys, xs - 1], r[ys, xs + 1], r[ys - 1, xs], r[ys + 1, xs]
    gx = (right - left) / 2
    gy = (down - up) / 2
    hxx = right - 2 * c + left
    hyy = down - 2 * c + up
    hxy = (r[ys + 1, xs + 1] - r[ys + 1, xs - 1] - r[ys - 1, xs + 1] + r[ys - 1, xs - 1]) / 4
    det = hxx * hyy - hxy * hxy
    peaked = (hxx < 0) & (det > 0)
    det = np.where(peaked, det, 1.0)
    ox = np.where(peaked, np.clip((hxy * gy - hyy * gx) / det, -0.5, 0.5), 0.0)
    oy = np.where(peaked, np.clip((hxy * gx - hxx * gy) / det, -0.5, 0.5), 0.0)
    return xs + ox, ys + oy


def _check_settings(
    max_count: int = 1, ratio: float = 0.8, iterations: int = 1, inlier_px: float = 2.0
) -> None:
    """Reject a detection, matching or RANSAC setting no input could satisfy,
    in pipeline order; the defaults of the ones a caller leaves out pass."""
    if max_count < 1:
        raise ValueError(f"keypoint count must be at least 1, got {max_count}")
    if not 0 < ratio <= 1:
        raise ValueError("ratio must be in (0, 1]")
    if iterations < 1:
        raise ValueError(f"RANSAC needs at least one iteration, got {iterations}")
    if not (math.isfinite(inlier_px) and inlier_px > 0):
        raise ValueError(f"inlier threshold must be finite and positive, got {inlier_px}")


def detect_keypoints(img: RgbImage, max_count: int = 200) -> list[Keypoint]:
    """Harris corners, 3x3 non-max suppressed, strongest first, each placed at
    the subpixel vertex of its response (see ``_subpixel``).

    Descriptors are mean-subtracted 9x9 patches around the integer peak, scaled
    to unit L2 norm; patches with no contrast are discarded.
    """
    _check_settings(max_count=max_count)
    if img.height < 16 or img.width < 16:
        raise ValueError("image too small for keypoint detection (need 16x16)")
    gray = _to_gray(img)
    smoothed = _smooth3(gray)
    gy, gx = np.gradient(smoothed)
    sxx = _box3(gx * gx)
    syy = _box3(gy * gy)
    sxy = _box3(gx * gy)
    response = (sxx * syy - sxy * sxy) - HARRIS_K * (sxx + syy) ** 2
    peaks = _nms3(response) & (response > 1e-9)
    # keep room for the descriptor patch
    peaks[: PATCH_RADIUS, :] = False
    peaks[-PATCH_RADIUS:, :] = False
    peaks[:, :PATCH_RADIUS] = False
    peaks[:, -PATCH_RADIUS:] = False
    ys, xs = np.nonzero(peaks)
    if len(ys) == 0:
        return []
    order = np.lexsort((xs, ys, -response[ys, xs]))[:max_count]
    ys, xs = ys[order], xs[order]
    side = 2 * PATCH_RADIUS + 1
    patches = sliding_window_view(gray, (side, side))[ys - PATCH_RADIUS, xs - PATCH_RADIUS]
    d = patches.reshape(len(order), -1) - patches.mean(axis=(1, 2))[:, None]
    # a stacked matmul takes each row's dot product as np.linalg.norm does for one
    # patch, so the norms are bit-identical (numpy 1.x has no np.vecdot)
    norms = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
    keep = np.flatnonzero(~(norms < 1e-12))
    descriptors = d[keep] / norms[keep, None]
    px, py = _subpixel(response, ys, xs)
    return [
        Keypoint(float(px[i]), float(py[i]), float(response[ys[i], xs[i]]), desc)
        for i, desc in zip(keep, descriptors)
    ]


def match_keypoints(
    a: list[Keypoint], b: list[Keypoint], ratio: float = 0.8
) -> list[tuple[int, int]]:
    """Lowe-ratio matches by exact brute-force descriptor distance."""
    _check_settings(ratio=ratio)
    if not a or not b:
        return []
    da = np.stack([k.descriptor for k in a])
    db = np.stack([k.descriptor for k in b])
    d2 = np.maximum(
        (da * da).sum(axis=1)[:, None] + (db * db).sum(axis=1)[None, :] - 2.0 * da @ db.T, 0.0
    )
    dist = np.sqrt(d2)
    nearest = dist.argmin(axis=1)
    # an inf column makes the second distance inf when b has one keypoint
    two = np.partition(np.pad(dist, ((0, 0), (0, 1)), constant_values=np.inf), 1, axis=1)
    return [(int(i), int(nearest[i])) for i in np.flatnonzero(two[:, 0] < ratio * two[:, 1])]


def _draw_triples(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` ordered triples of distinct indices below ``n``, uniform over all
    n(n-1)(n-2) of them, from one ``rng.integers`` call: the second index is
    drawn from n-1 values and steps past the first, the third from n-2 values
    and steps past the smaller, then the larger, of the two taken."""
    idx = rng.integers(0, (n, n - 1, n - 2), size=(size, 3))
    i0, i1, i2 = idx.T
    i1 += i1 >= i0
    i2 += i2 >= np.minimum(i0, i1)
    i2 += i2 >= np.maximum(i0, i1)
    return idx


def _solve_affine_3pt(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 6-dof affines through stacked point triples via the 2x2 adjugate.

    ``src`` and ``dst`` are (k, 3, 2).  Returns the (m, 2, 3) models of the
    triples that are not (near-)collinear and whose model is invertible, and
    their m indices among the k.  Using the adjugate keeps exact-identity
    correspondences bit-exact.
    """
    e1 = src[:, 1] - src[:, 0]
    e2 = src[:, 2] - src[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    solved = np.flatnonzero(~(np.abs(det) < 1e-9))
    src, dst, e1, e2, det = src[solved], dst[solved], e1[solved], e2[solved], det[solved]
    f1 = dst[:, 1] - dst[:, 0]
    f2 = dst[:, 2] - dst[:, 0]
    # columns of G = [f1 f2] @ adj([e1 e2]) / det
    g00 = (f1[:, 0] * e2[:, 1] - f2[:, 0] * e1[:, 1]) / det
    g01 = (f2[:, 0] * e1[:, 0] - f1[:, 0] * e2[:, 0]) / det
    g10 = (f1[:, 1] * e2[:, 1] - f2[:, 1] * e1[:, 1]) / det
    g11 = (f2[:, 1] * e1[:, 0] - f1[:, 1] * e2[:, 0]) / det
    tx = dst[:, 0, 0] - (g00 * src[:, 0, 0] + g01 * src[:, 0, 1])
    ty = dst[:, 0, 1] - (g10 * src[:, 0, 0] + g11 * src[:, 0, 1])
    models = np.stack([g00, g01, tx, g10, g11, ty], axis=1).reshape(-1, 2, 3)
    invertible = _invertible(models)
    return models[invertible], solved[invertible]


def ransac_affine(
    src_points: np.ndarray,
    dst_points: np.ndarray,
    iterations: int = 1000,
    inlier_px: float = 2.0,
    seed: int = 0,
) -> AffineTransform:
    """Robust affine fit: 3-point hypotheses, consensus by reprojection distance,
    least-squares refit on the best consensus set (kept only when it is
    invertible and strictly lowers the squared reprojection error, so exact
    hypotheses survive verbatim).

    Hypothesis ``it`` is row ``it`` of the ordered triples that ``_draw_triples``
    would draw in one call for all ``iterations``; a triple that is collinear or
    fits a singular affine is skipped.  The best hypothesis has the most
    inliers, then the lowest inlier error sum, then the lowest ``it``.
    Hypotheses are drawn, solved and scored in blocks of ``RANSAC_BLOCK`` as
    stacked arrays, which picks the same model as scoring them one by one; a
    block whose best count is below the incumbent's is skipped after its counts.
    """
    src = np.asarray(src_points, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst_points, dtype=np.float64).reshape(-1, 2)
    if src.shape != dst.shape:
        raise ValueError("source/destination point counts differ")
    n = src.shape[0]
    if n < 3:
        raise ValueError("need at least 3 point pairs")
    _check_settings(iterations=iterations, inlier_px=inlier_px)
    rng = np.random.default_rng(seed)
    best_key = None
    best_model = None
    best_inliers = None
    solved = False
    for start in range(0, iterations, RANSAC_BLOCK):
        idx = _draw_triples(rng, n, min(RANSAC_BLOCK, iterations - start))
        models, its = _solve_affine_3pt(src[idx], dst[idx])
        if len(its) == 0:
            continue
        solved = True
        proj = src @ models[:, :, :2].transpose(0, 2, 1) + models[:, None, :, 2]
        dx = proj[:, :, 0] - dst[:, 0]
        dy = proj[:, :, 1] - dst[:, 1]
        err = np.sqrt(dx * dx + dy * dy)
        inliers = err <= inlier_px
        counts = inliers.sum(axis=1)
        count = int(counts.max())
        if count < 3 or (best_key is not None and -count > best_key[0]):
            continue
        # every tied row holds ``count`` inliers, so the gathered rows sum each
        # row's inlier errors exactly as a one-row sum would
        tied = np.flatnonzero(counts == count)
        sums = err[tied][inliers[tied]].reshape(len(tied), count).sum(axis=1)
        j = sums.argmin()
        k = tied[j]
        key = (-count, float(sums[j]), start + int(its[k]))
        if best_key is None or key < best_key:
            best_key = key
            best_model = models[k]
            best_inliers = inliers[k]
    if best_model is None:
        if solved:
            raise ValueError(f"RANSAC failed: no hypothesis reached 3 inliers within {inlier_px} px")
        raise ValueError("RANSAC failed: every sampled triple was collinear or fit a singular affine")
    s_in, d_in = src[best_inliers], dst[best_inliers]
    design = np.hstack([s_in, np.ones((len(s_in), 1))])
    fit, *_ = np.linalg.lstsq(design, d_in, rcond=None)
    refit = fit.T

    def sse(model: np.ndarray) -> float:
        proj = s_in @ model[:, :2].T + model[:, 2]
        return float(((proj - d_in) ** 2).sum())

    model = refit if _invertible(refit) and sse(refit) < sse(best_model) else best_model
    return AffineTransform(model)


def mean_displacement(t: AffineTransform, width: int, height: int) -> tuple[float, float]:
    """Mean and max Euclidean displacement of integer pixel centers under ``t``."""
    if width < 1 or height < 1:
        raise ValueError("dimensions must be positive")
    xs, ys = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    pts = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1)
    disp = np.linalg.norm(t.apply(pts) - pts, axis=1)
    return float(disp.mean()), float(disp.max())


def evaluate_alignment(
    img_a: RgbImage,
    img_b: RgbImage,
    max_keypoints: int = 300,
    ratio: float = 0.8,
    iterations: int = 1000,
    inlier_px: float = 2.0,
    seed: int = 0,
) -> AlignmentReport:
    """Full pipeline: detect, match, RANSAC affine, per-pixel displacement.

    Every setting is checked before any detection runs."""
    _check_settings(max_keypoints, ratio, iterations, inlier_px)
    kps_a = detect_keypoints(img_a, max_keypoints)
    kps_b = detect_keypoints(img_b, max_keypoints)
    matches = match_keypoints(kps_a, kps_b, ratio)
    if len(matches) < 3:
        raise ValueError(f"only {len(matches)} keypoint matches; need at least 3")
    src = np.array([[kps_a[i].x, kps_a[i].y] for i, _ in matches])
    dst = np.array([[kps_b[j].x, kps_b[j].y] for _, j in matches])
    transform = ransac_affine(src, dst, iterations, inlier_px, seed)
    err = np.linalg.norm(transform.apply(src) - dst, axis=1)
    inlier_count = int((err <= inlier_px).sum())
    mean_px, max_px = mean_displacement(transform, img_a.width, img_a.height)
    return AlignmentReport(mean_px, max_px, inlier_count, len(matches), transform)


def warp_affine(img: RgbImage, t: AffineTransform) -> RgbImage:
    """Inverse-warp with bilinear sampling: output(p) = img(t^-1 p), so a feature
    at p in the input appears at t(p) in the output.  Samples clamp at borders."""
    h, w = img.height, img.width
    m = np.vstack([t.matrix, [0.0, 0.0, 1.0]])
    inv = np.linalg.inv(m)
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    sx = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]
    sy = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.clip(np.floor(sx).astype(int), 0, w - 2) if w > 1 else np.zeros_like(sx, dtype=int)
    y0 = np.clip(np.floor(sy).astype(int), 0, h - 2) if h > 1 else np.zeros_like(sy, dtype=int)
    fx = (sx - x0)[..., None]
    fy = (sy - y0)[..., None]
    v = img.values
    out = (
        v[y0, x0] * (1 - fx) * (1 - fy)
        + v[y0, x0 + 1] * fx * (1 - fy)
        + v[y0 + 1, x0] * (1 - fx) * fy
        + v[y0 + 1, x0 + 1] * fx * fy
    )
    return RgbImage(np.clip(out, 0.0, 1.0))
