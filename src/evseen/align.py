"""Spatial alignment metric for image pairs.

Keypoints (Harris corners with normalized-patch descriptors) are matched by
exact nearest neighbor with a ratio test, an affine transform is fit by RANSAC,
and the reported metric is the mean displacement that transform induces over
every pixel center.  The detector is pluggable; only the descriptor contract
(unit L2 norm, flat patches discarded) is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) <= 1e-9:
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

    @classmethod
    def from_line(cls, line: str) -> "AffineTransform":
        values = [float(v) for v in line.strip().split(",")]
        if len(values) != 6:
            raise ValueError("affine line must hold exactly 6 values")
        return cls(np.array(values).reshape(2, 3))


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


def detect_keypoints(img: RgbImage, max_count: int = 200, harris_k: float = 0.04) -> list[Keypoint]:
    """Harris corners, 3x3 non-max suppressed, strongest first.

    Descriptors are mean-subtracted 9x9 patches scaled to unit L2 norm; patches
    with no contrast are discarded.
    """
    if img.height < 16 or img.width < 16:
        raise ValueError("image too small for keypoint detection (need 16x16)")
    gray = _to_gray(img)
    smoothed = _smooth3(gray)
    gy, gx = np.gradient(smoothed)
    sxx = _box3(gx * gx)
    syy = _box3(gy * gy)
    sxy = _box3(gx * gy)
    response = (sxx * syy - sxy * sxy) - harris_k * (sxx + syy) ** 2
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
    keypoints = []
    for idx in order:
        y, x = int(ys[idx]), int(xs[idx])
        patch = gray[y - PATCH_RADIUS : y + PATCH_RADIUS + 1, x - PATCH_RADIUS : x + PATCH_RADIUS + 1]
        d = patch.reshape(-1) - patch.mean()
        norm = float(np.linalg.norm(d))
        if norm < 1e-12:
            continue
        keypoints.append(Keypoint(float(x), float(y), float(response[y, x]), d / norm))
    return keypoints


def match_keypoints(
    a: list[Keypoint], b: list[Keypoint], ratio: float = 0.8
) -> list[tuple[int, int]]:
    """Lowe-ratio matches by exact brute-force descriptor distance."""
    if not 0 < ratio <= 1:
        raise ValueError("ratio must be in (0, 1]")
    if not a or not b:
        return []
    da = np.stack([k.descriptor for k in a])
    db = np.stack([k.descriptor for k in b])
    d2 = np.maximum(
        (da * da).sum(axis=1)[:, None] + (db * db).sum(axis=1)[None, :] - 2.0 * da @ db.T, 0.0
    )
    dist = np.sqrt(d2)
    matches = []
    for i in range(len(a)):
        row = dist[i]
        j = int(row.argmin())
        d1 = row[j]
        if len(b) == 1:
            d2nd = np.inf
        else:
            d2nd = np.partition(row, 1)[1]
        if d1 < ratio * d2nd:
            matches.append((i, j))
    return matches


def _solve_affine_3pt(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Exact 6-dof affine through three point pairs via the 2x2 adjugate.

    Returns None when the source triple is (near-)collinear.  Using the adjugate
    keeps exact-identity correspondences bit-exact.
    """
    e1 = src[1] - src[0]
    e2 = src[2] - src[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if abs(det) < 1e-9:
        return None
    f1 = dst[1] - dst[0]
    f2 = dst[2] - dst[0]
    # columns of G = [f1 f2] @ adj([e1 e2]) / det
    g00 = (f1[0] * e2[1] - f2[0] * e1[1]) / det
    g01 = (f2[0] * e1[0] - f1[0] * e2[0]) / det
    g10 = (f1[1] * e2[1] - f2[1] * e1[1]) / det
    g11 = (f2[1] * e1[0] - f1[1] * e2[0]) / det
    tx = dst[0, 0] - (g00 * src[0, 0] + g01 * src[0, 1])
    ty = dst[0, 1] - (g10 * src[0, 0] + g11 * src[0, 1])
    return np.array([[g00, g01, tx], [g10, g11, ty]])


def ransac_affine(
    src_points: np.ndarray,
    dst_points: np.ndarray,
    iterations: int = 1000,
    inlier_px: float = 2.0,
    seed: int = 0,
) -> AffineTransform:
    """Robust affine fit: 3-point hypotheses, consensus by reprojection distance,
    least-squares refit on the best consensus set (kept only when it strictly
    lowers the squared reprojection error, so exact hypotheses survive verbatim).
    """
    src = np.asarray(src_points, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst_points, dtype=np.float64).reshape(-1, 2)
    if src.shape != dst.shape:
        raise ValueError("source/destination point counts differ")
    n = src.shape[0]
    if n < 3:
        raise ValueError("need at least 3 point pairs")
    rng = np.random.default_rng(seed)
    best_key = None
    best_model = None
    best_inliers = None
    for it in range(iterations):
        idx = rng.choice(n, size=3, replace=False)
        model = _solve_affine_3pt(src[idx], dst[idx])
        if model is None:
            continue
        proj = src @ model[:, :2].T + model[:, 2]
        err = np.linalg.norm(proj - dst, axis=1)
        inliers = err <= inlier_px
        count = int(inliers.sum())
        if count < 3:
            continue
        key = (-count, float(err[inliers].sum()), it)
        if best_key is None or key < best_key:
            best_key = key
            best_model = model
            best_inliers = inliers
    if best_model is None:
        raise ValueError("RANSAC failed: every sampled triple was collinear")
    s_in, d_in = src[best_inliers], dst[best_inliers]
    design = np.hstack([s_in, np.ones((len(s_in), 1))])
    fit, *_ = np.linalg.lstsq(design, d_in, rcond=None)
    refit = fit.T

    def sse(model: np.ndarray) -> float:
        proj = s_in @ model[:, :2].T + model[:, 2]
        return float(((proj - d_in) ** 2).sum())

    model = refit if sse(refit) < sse(best_model) else best_model
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
    """Full pipeline: detect, match, RANSAC affine, per-pixel displacement."""
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
