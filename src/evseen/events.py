"""Event generation and representations.

Events fire by the log-threshold rule: each pixel keeps a reference log level and
emits one polarity event per threshold crossing, stepping the reference by the
threshold instead of resetting it.  This makes event counts analytically
predictable and the trigger invariant to global radiance scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayer import BayerOrder
from .imaging import RadianceField

__all__ = [
    "EventStream",
    "VoxelGrid",
    "simulate_events",
    "voxelize",
    "position_embedding",
]

DEFAULT_LOG_FLOOR = 1e-6
_INT64 = np.iinfo(np.int64)
_SENSOR_LIMIT = 0xFFFF  # EVT0 headers store the sensor size as uint16, and coordinates are uint16


def _stored(what: str, values, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array; a ValueError names the first value the cast would change."""
    given = np.asarray(values)
    if given.dtype == dtype:
        return given
    name = np.dtype(dtype).name
    try:
        with np.errstate(invalid="ignore"):  # NaN and inf are caught below
            stored = given.astype(dtype)
    except (OverflowError, TypeError, ValueError):  # Python ints past 64 bits, or non-numbers
        raise ValueError(f"event {what}s must be {name} values") from None
    changed = np.flatnonzero(stored != given)
    if changed.size:
        i = changed[0]
        raise ValueError(f"event {what} {given[i]} at index {i} changes when stored as {name}")
    return stored


@dataclass
class EventStream:
    """Events ordered by timestamp, ties broken by (y, x, p).

    The stream stores its own C-contiguous ``uint16`` coordinates, ``int64``
    timestamps and ``int8`` polarities; a component whose values would change
    when stored so (out of range or not integral) is a ValueError.  Construction
    checks the order in one pass and sorts only a stream that is out of order.
    """

    width: int
    height: int
    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    ps: np.ndarray

    def __post_init__(self) -> None:
        if self.width > _SENSOR_LIMIT or self.height > _SENSOR_LIMIT:
            raise ValueError(f"sensor {self.width}x{self.height} is larger than {_SENSOR_LIMIT} pixels on a side")
        given = (self.xs, self.ys, self.ts, self.ps)
        self.xs = _stored("x coordinate", self.xs, np.uint16)
        self.ys = _stored("y coordinate", self.ys, np.uint16)
        self.ts = _stored("timestamp", self.ts, np.int64)
        self.ps = _stored("polarity", self.ps, np.int8)
        n = len(self.ts)
        if not (len(self.xs) == len(self.ys) == len(self.ps) == n):
            raise ValueError("event component arrays must share one length")
        if n:
            if self.xs.max() >= self.width or self.ys.max() >= self.height:
                raise ValueError("event coordinates outside sensor bounds")
            if not np.all(np.abs(self.ps) == 1):
                raise ValueError("polarity must be +1 or -1")
            if not self._in_order():
                order = np.lexsort((self.ps, self.xs, self.ys, self.ts))
                self.xs = self.xs[order]
                self.ys = self.ys[order]
                self.ts = self.ts[order]
                self.ps = self.ps[order]
        for name, before in zip(("xs", "ys", "ts", "ps"), given):
            if isinstance(before, np.ndarray) and np.may_share_memory(getattr(self, name), before):
                setattr(self, name, getattr(self, name).copy())

    def _in_order(self) -> bool:
        """Whether (t, y, x, p) never decreases; stamps are compared, not differenced,
        since a difference of int64 stamps can wrap."""
        later, earlier = self.ts[1:], self.ts[:-1]
        if not np.all(later >= earlier):
            return False
        key = self.ys.astype(np.int64)  # (y * width + x) * 2 + (p > 0), built in place
        key *= self.width
        key += self.xs
        key *= 2
        key += self.ps > 0
        return bool(np.all((np.diff(key) >= 0) | (later > earlier)))

    def __len__(self) -> int:
        return len(self.ts)

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

    def log_level(frame: int) -> np.ndarray:
        return np.log(np.maximum(field.values[frame], floor)).ravel()

    ref = log_level(0)
    pixels: list[np.ndarray] = []
    reps: list[np.ndarray] = []
    signs: list[np.ndarray] = []
    per_frame: list[int] = []
    for f in range(1, field.frames):
        delta = log_level(f) - ref
        # number of strict crossings: emit while |excess| > C, stepping by C
        counts = np.maximum(np.ceil(np.abs(delta) / threshold) - 1.0, 0.0).astype(np.int64)
        fired = np.flatnonzero(counts)
        count = counts[fired]
        sign = np.sign(delta[fired])
        ref[fired] += sign * count * threshold
        pixels.append(fired)
        reps.append(count)
        signs.append(sign.astype(np.int8))
        per_frame.append(int(count.sum()))
    # frames in time order and pixels in raster order: the stream is built sorted,
    # in the dtypes it stores (the constructor rejects a sensor too large for them)
    per_pixel = np.concatenate(reps)
    ys, xs = np.divmod(np.concatenate(pixels), field.width)
    return EventStream(
        field.width,
        field.height,
        np.repeat(xs.astype(np.uint16), per_pixel),
        np.repeat(ys.astype(np.uint16), per_pixel),
        np.repeat(field.timestamps_us[1:], per_frame),
        np.repeat(np.concatenate(signs), per_pixel),
    )


def voxelize(
    stream: EventStream, bins: int, t_start: int | None = None, t_end: int | None = None
) -> VoxelGrid:
    """Bin events into a voxel grid with linear interpolation between bin centers.

    Bin centers sit at t_start + i * (t_end - t_start) / (bins - 1); events outside
    the window are clamped to the boundary bins, so signed mass is conserved.  A
    missing bound falls back to the stream's first (last) timestamp, or 0 (1) for
    an empty stream.  Only a window taken wholly from the stream is widened to at
    least one microsecond; a window with a given bound and ``t_end <= t_start`` is
    a ValueError.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    widen = t_start is None and t_end is None
    if t_start is None:
        t_start = int(stream.ts.min()) if len(stream) else 0
    if t_end is None:
        t_end = int(stream.ts.max()) if len(stream) else 1
    if widen:
        t_end = max(t_end, t_start + 1)
    if t_end <= t_start:
        raise ValueError(f"empty time window: t_end {t_end} <= t_start {t_start}")
    shape = (stream.height, stream.width, bins)
    cells = stream.height * stream.width * bins
    if cells * 8 > np.iinfo(np.intp).max:  # no array holds it, and its int64 cell indices would wrap
        raise ValueError(f"a {stream.height}x{stream.width}x{bins} voxel grid is larger than the maximum possible array")
    if len(stream) == 0:
        return VoxelGrid(np.zeros(shape), t_start, t_end)
    # one bincount over every event's lower-bin weight, then every upper-bin one,
    # so each cell sums its contributions in stream order, lower bins first; the
    # arithmetic runs in place in the two halves of the index and weight arrays
    n = len(stream)
    index = np.empty(n if bins == 1 else 2 * n, dtype=np.int64)
    weights = np.empty(len(index))
    cell = index[:n]
    cell[:] = stream.ys  # widened before the product, which overflows uint16
    cell *= stream.width
    cell += stream.xs
    cell *= bins
    if bins == 1:
        weights[:] = stream.ps
    else:
        # the stream is sorted, so its first and last stamps bound every int64 intermediate
        span = t_end - t_start
        first, last = ((int(stream.ts[i]) - t_start) * (bins - 1) for i in (0, -1))
        tau = weights[n:]
        if _INT64.min <= min(t_start, first) and max(t_start, span, last) <= _INT64.max:
            offset = stream.ts - t_start
            offset *= bins - 1
            np.true_divide(offset, span, out=tau)
        else:  # those intermediates would wrap in int64; float64 ones cannot
            np.subtract(stream.ts, float(t_start), out=tau)
            tau *= bins - 1
            tau /= float(span)
        np.clip(tau, 0.0, bins - 1, out=tau)
        lo = np.floor(tau).astype(np.int64)
        np.minimum(lo, bins - 2, out=lo)
        cell += lo
        np.add(cell, 1, out=index[n:])
        tau -= lo  # the upper bin's weight; the lower one's is 1 - that
        np.subtract(1.0, tau, out=weights[:n])
        weights[:n] *= stream.ps
        weights[n:] *= stream.ps
    grid = np.bincount(index, weights=weights, minlength=cells)
    return VoxelGrid(grid.reshape(shape), t_start, t_end)


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
