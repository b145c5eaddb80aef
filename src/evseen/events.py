"""Event generation and representations.

Events fire by the log-threshold rule: each pixel keeps a reference log level and
emits one polarity event per threshold crossing, stepping the reference by the
threshold instead of resetting it.  This makes event counts analytically
predictable and the trigger invariant to global radiance scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayer import BayerOrder, bayer_index
from .imaging import RadianceField

__all__ = [
    "Event",
    "EventStream",
    "VoxelGrid",
    "BayerOrder",
    "bayer_index",
    "simulate_events",
    "voxelize",
    "voxelize_stream",
    "position_embedding",
]

DEFAULT_LOG_FLOOR = 1e-6
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Event:
    x: int
    y: int
    t_us: int
    p: int


@dataclass
class EventStream:
    """Events sorted by timestamp, ties broken by (y, x, p)."""

    width: int
    height: int
    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    ps: np.ndarray

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=np.uint16)
        self.ys = np.asarray(self.ys, dtype=np.uint16)
        self.ts = np.asarray(self.ts, dtype=np.int64)
        self.ps = np.asarray(self.ps, dtype=np.int8)
        n = len(self.ts)
        if not (len(self.xs) == len(self.ys) == len(self.ps) == n):
            raise ValueError("event component arrays must share one length")
        if n:
            if self.xs.max() >= self.width or self.ys.max() >= self.height:
                raise ValueError("event coordinates outside sensor bounds")
            if not np.all(np.abs(self.ps) == 1):
                raise ValueError("polarity must be +1 or -1")
            order = np.lexsort((self.ps, self.xs, self.ys, self.ts))
            self.xs = self.xs[order]
            self.ys = self.ys[order]
            self.ts = self.ts[order]
            self.ps = self.ps[order]

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.xs[i]), int(self.ys[i]), int(self.ts[i]), int(self.ps[i]))

    @classmethod
    def empty(cls, width: int, height: int) -> "EventStream":
        zero = np.zeros(0)
        return cls(width, height, zero, zero, zero, zero)


@dataclass
class VoxelGrid:
    """H x W x M temporal binning of events; total signed mass equals sum of polarities."""

    values: np.ndarray
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError("voxel grid must be (height, width, bins)")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bins(self) -> int:
        return self.values.shape[2]


def simulate_events(
    field: RadianceField, threshold: float, floor: float = DEFAULT_LOG_FLOOR
) -> EventStream:
    """Generate events from a radiance field by the reference-stepping trigger rule.

    Per pixel the reference starts at log(max(L(t0), floor)).  At every later
    frame, while |log(max(L, floor)) - ref| exceeds the threshold, one event with
    the sign of the change is emitted at the frame timestamp and the reference
    steps by one threshold toward the current level.
    """
    if field.frames < 2:
        raise ValueError("need at least two frames to difference")
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError("threshold must be finite and positive")
    if not (np.isfinite(floor) and floor > 0):
        raise ValueError("log floor must be finite and positive")

    logs = np.log(np.maximum(field.values, floor))
    ref = logs[0].copy()
    xs_parts: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    ts_parts: list[np.ndarray] = []
    ps_parts: list[np.ndarray] = []
    for f in range(1, field.frames):
        delta = logs[f] - ref
        # number of strict crossings: emit while |excess| > C, stepping by C
        counts = np.maximum(np.ceil(np.abs(delta) / threshold) - 1.0, 0.0).astype(np.int64)
        fired = counts > 0
        if fired.any():
            yy, xx = np.nonzero(fired)
            reps = counts[fired]
            pol = np.sign(delta[fired]).astype(np.int8)
            xs_parts.append(np.repeat(xx, reps))
            ys_parts.append(np.repeat(yy, reps))
            ps_parts.append(np.repeat(pol, reps))
            ts_parts.append(np.full(int(reps.sum()), field.timestamps_us[f], dtype=np.int64))
            ref += np.sign(delta) * counts * threshold
    if not xs_parts:
        return EventStream.empty(field.width, field.height)
    return EventStream(
        field.width,
        field.height,
        np.concatenate(xs_parts),
        np.concatenate(ys_parts),
        np.concatenate(ts_parts),
        np.concatenate(ps_parts),
    )


def voxelize(stream: EventStream, bins: int, t_start: int, t_end: int) -> VoxelGrid:
    """Bin events into a voxel grid with linear interpolation between bin centers.

    Bin centers sit at t_start + i * (t_end - t_start) / (bins - 1); events outside
    the window are clamped to the boundary bins, so signed mass is conserved.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if t_end <= t_start:
        raise ValueError(f"empty time window: t_end {t_end} <= t_start {t_start}")
    grid = np.zeros((stream.height, stream.width, bins), dtype=np.float64)
    if len(stream) == 0:
        return VoxelGrid(grid, t_start, t_end)
    if bins == 1:
        np.add.at(grid, (stream.ys, stream.xs, np.zeros(len(stream), dtype=np.int64)), stream.ps)
        return VoxelGrid(grid, t_start, t_end)
    # the stream is sorted, so its first and last stamps bound every int64 intermediate
    span = t_end - t_start
    first, last = ((int(stream.ts[i]) - t_start) * (bins - 1) for i in (0, -1))
    if _INT64.min <= min(t_start, first) and max(t_start, span, last) <= _INT64.max:
        tau = (stream.ts - t_start) * (bins - 1) / span
    else:  # those intermediates would wrap in int64; float64 ones cannot
        tau = (stream.ts - float(t_start)) * (bins - 1) / float(span)
    tau = np.clip(tau, 0.0, bins - 1)
    lo = np.minimum(np.floor(tau).astype(np.int64), bins - 2)
    w_hi = tau - lo
    w_lo = 1.0 - w_hi
    pol = stream.ps.astype(np.float64)
    np.add.at(grid, (stream.ys, stream.xs, lo), pol * w_lo)
    np.add.at(grid, (stream.ys, stream.xs, lo + 1), pol * w_hi)
    return VoxelGrid(grid, t_start, t_end)


def voxelize_stream(
    stream: EventStream, bins: int, t_start: int | None = None, t_end: int | None = None
) -> VoxelGrid:
    """Voxelize over the stream's own time span, or over the bounds given.

    A missing bound falls back to the first (last) timestamp, or 0 (1) for an
    empty stream.  Only a window taken wholly from the stream is widened to at
    least one microsecond; a window with a given bound and ``t_end <= t_start``
    is a ValueError.
    """
    widen = t_start is None and t_end is None
    if t_start is None:
        t_start = int(stream.ts.min()) if len(stream) else 0
    if t_end is None:
        t_end = int(stream.ts.max()) if len(stream) else 1
    return voxelize(stream, bins, t_start, max(t_end, t_start + 1) if widen else t_end)


def position_embedding(width: int, height: int, order: BayerOrder, dim: int) -> np.ndarray:
    """Deterministic per-pixel positional feature of shape (height, width, dim).

    Channel 0 is x/(width-1), channel 1 is y/(height-1), channel 2 is the Bayer
    index over 3; remaining channels are sinusoids of the normalized coordinates
    at geometrically spaced frequencies.
    """
    if dim < 3:
        raise ValueError("positional feature needs at least 3 channels")
    u = np.arange(width, dtype=np.float64) / max(width - 1, 1)
    v = np.arange(height, dtype=np.float64) / max(height - 1, 1)
    uu, vv = np.meshgrid(u, v)
    out = np.zeros((height, width, dim), dtype=np.float64)
    out[..., 0] = uu
    out[..., 1] = vv
    slots = order.canonical_slots()
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    pos = 2 * (ys % 2) + (xs % 2)
    out[..., 2] = np.asarray(slots, dtype=np.float64)[pos] / 3.0
    for extra in range(dim - 3):
        omega = np.pi * float(2 ** (extra // 4))
        kind = extra % 4
        if kind == 0:
            out[..., 3 + extra] = np.sin(omega * uu)
        elif kind == 1:
            out[..., 3 + extra] = np.sin(omega * vv)
        elif kind == 2:
            out[..., 3 + extra] = np.cos(omega * uu)
        else:
            out[..., 3 + extra] = np.cos(omega * vv)
    return out
