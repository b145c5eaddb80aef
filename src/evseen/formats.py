"""On-disk formats: netpbm images, the EVSF float container, the EVT0 event
binary, CSV interchange for events and IMU streams, checkpoints, and run
manifests.  Every format round-trips write -> read -> write byte-identically.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import struct
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from .events import EventStream
from .imaging import RawImage, RgbImage
from .imu import ImuSequence

__all__ = [
    "FormatError",
    "write_ppm",
    "read_ppm",
    "write_pgm",
    "read_pgm",
    "evsf_bytes",
    "evsf_from_bytes",
    "write_evsf",
    "read_evsf",
    "write_events",
    "read_events",
    "write_events_csv",
    "read_events_csv",
    "write_imu_csv",
    "read_imu_csv",
    "registration_line",
    "save_checkpoint",
    "load_checkpoint",
    "config_to_text",
    "config_from_text",
    "read_config",
    "write_manifest",
    "content_hash",
]


class FormatError(Exception):
    """Malformed or truncated input file."""


def _take(raw: bytes, offset: int, size: int, what: str) -> bytes:
    """``raw[offset:offset + size]``, or FormatError naming the offset when short."""
    if offset + size > len(raw):
        raise FormatError(
            f"truncated {what} at byte {offset}: {size} bytes needed, {max(len(raw) - offset, 0)} left"
        )
    return raw[offset : offset + size]


def _unpack(fmt: str, raw: bytes, offset: int, what: str) -> tuple:
    """Bounds-checked ``struct.unpack_from``."""
    return struct.unpack(fmt, _take(raw, offset, struct.calcsize(fmt), what))


def _utf8(raw: bytes, offset: int, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8 at byte {offset + exc.start}") from exc


# --------------------------------------------------------------------------- netpbm


def write_ppm(img: RgbImage, path: str | Path) -> None:
    data = np.clip(np.rint(img.values * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _read_pnm_header(raw: bytes, magic: bytes, fields: int) -> tuple[list[int], int]:
    if not raw.startswith(magic):
        raise FormatError(f"expected {magic.decode()} header")
    values: list[int] = []
    pos = 2
    while len(values) < fields:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"truncated netpbm header at byte {pos}")
        if not raw[start:pos].isdigit() or pos - start > 9:
            raise FormatError(f"netpbm header field at byte {start} is not a decimal number below 10^9")
        values.append(int(raw[start:pos]))
    return values, pos + 1  # single whitespace byte after maxval


def read_ppm(path: str | Path) -> RgbImage:
    raw = Path(path).read_bytes()
    (width, height, maxval), offset = _read_pnm_header(raw, b"P6", 3)
    if maxval != 255:
        raise FormatError(f"unsupported PPM maxval {maxval}")
    expect = width * height * 3
    payload = raw[offset : offset + expect]
    if len(payload) != expect:
        raise FormatError("truncated PPM payload")
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(data.astype(np.float64) / 255.0)


def write_pgm(raw_img: RawImage, path: str | Path) -> None:
    maxval = raw_img.max_value
    with open(path, "wb") as fh:
        fh.write(f"P5\n{raw_img.width} {raw_img.height}\n{maxval}\n".encode("ascii"))
        if maxval > 255:
            fh.write(raw_img.values.astype(">u2").tobytes())
        else:
            fh.write(raw_img.values.astype(np.uint8).tobytes())


def read_pgm(path: str | Path) -> RawImage:
    raw = Path(path).read_bytes()
    (width, height, maxval), offset = _read_pnm_header(raw, b"P5", 3)
    bit_depth = maxval.bit_length()
    if (1 << bit_depth) - 1 != maxval or not 8 <= bit_depth <= 12:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    dtype = ">u2" if maxval > 255 else np.uint8
    count = width * height
    try:
        data = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    except ValueError as exc:
        raise FormatError("truncated PGM payload") from exc
    over = np.flatnonzero(data > maxval)
    if over.size:
        raise FormatError(f"PGM sample above maxval {maxval} at byte {offset + over[0] * data.itemsize}")
    return RawImage(data.astype(np.uint16).reshape(height, width), bit_depth)


# --------------------------------------------------------------------------- EVSF


def evsf_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    header = b"EVSF" + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.astype("<f4").tobytes()


def evsf_from_bytes(blob: bytes) -> np.ndarray:
    if blob[:4] != b"EVSF":
        raise FormatError("bad EVSF magic")
    (ndim,) = _unpack("<I", blob, 4, "EVSF rank")
    dims = _unpack(f"<{ndim}I", blob, 8, "EVSF dims")
    payload = _take(blob, 8 + 4 * ndim, 4 * math.prod(dims), "EVSF payload")
    try:
        return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
    except ValueError as exc:
        raise FormatError(f"EVSF dims {dims} at byte 8: {exc}") from exc


def write_evsf(arr: np.ndarray, path: str | Path) -> None:
    Path(path).write_bytes(evsf_bytes(arr))


def read_evsf(path: str | Path) -> np.ndarray:
    return evsf_from_bytes(Path(path).read_bytes())


# --------------------------------------------------------------------------- events

_EVT_RECORD = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<i8"), ("p", "i1")])


def write_events(stream: EventStream, path: str | Path) -> None:
    header = b"EVT0" + struct.pack("<HHQ", stream.width, stream.height, len(stream))
    records = np.empty(len(stream), dtype=_EVT_RECORD)
    records["x"] = stream.xs
    records["y"] = stream.ys
    records["t"] = stream.ts
    records["p"] = stream.ps
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_events(path: str | Path) -> EventStream:
    raw = Path(path).read_bytes()
    if raw[:4] != b"EVT0":
        raise FormatError("bad EVT0 magic")
    width, height, count = _unpack("<HHQ", raw, 4, "EVT0 header")
    records = np.frombuffer(_take(raw, 16, count * _EVT_RECORD.itemsize, "EVT0 records"), dtype=_EVT_RECORD)
    bad = np.flatnonzero((records["x"] >= width) | (records["y"] >= height) | (np.abs(records["p"]) != 1))
    if bad.size:
        offset = 16 + bad[0] * _EVT_RECORD.itemsize
        raise FormatError(f"EVT0 record at byte {offset} is off the {width}x{height} sensor or not of polarity +-1")
    return EventStream(width, height, records["x"], records["y"], records["t"], records["p"])


def write_events_csv(stream: EventStream, path: str | Path) -> None:
    lines = ["x,y,t_us,p"]
    for i in range(len(stream)):
        lines.append(f"{stream.xs[i]},{stream.ys[i]},{stream.ts[i]},{stream.ps[i]:+d}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_events_csv(path: str | Path, width: int, height: int) -> EventStream:
    lines = _utf8(Path(path).read_bytes(), 0, f"event CSV {path}").strip().split("\n")
    if not lines or lines[0] != "x,y,t_us,p":
        raise FormatError("missing event CSV header")
    xs, ys, ts, ps = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"malformed event CSV row at line {lineno}")
        try:
            xs.append(int(parts[0]))
            ys.append(int(parts[1]))
            ts.append(int(parts[2]))
            ps.append(int(parts[3]))
        except ValueError as exc:
            raise FormatError(f"malformed event CSV row at line {lineno}") from exc
        if not (0 <= xs[-1] < width and 0 <= ys[-1] < height and abs(ps[-1]) == 1 and abs(ts[-1]) < 2**63):
            raise FormatError(f"event CSV row at line {lineno} is off the {width}x{height} sensor or out of range")
    return EventStream(width, height, np.array(xs), np.array(ys), np.array(ts), np.array(ps))


# --------------------------------------------------------------------------- IMU

_IMU_HEADER = "t_us,ax,ay,az,gx,gy,gz"


def write_imu_csv(seq: ImuSequence, path: str | Path) -> None:
    period = 1_000_000 / seq.rate_hz
    lines = [_IMU_HEADER]
    for i in range(len(seq)):
        t = seq.t0_us + round(i * period)
        vals = ",".join(repr(float(v)) for v in seq.samples[i])
        lines.append(f"{t},{vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_imu_csv(path: str | Path) -> ImuSequence:
    lines = _utf8(Path(path).read_bytes(), 0, f"IMU CSV {path}").strip().split("\n")
    if not lines or lines[0] != _IMU_HEADER:
        raise FormatError("missing IMU CSV header")
    times = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise FormatError(f"malformed IMU CSV row at line {lineno}")
        try:
            times.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise FormatError(f"malformed IMU CSV row at line {lineno}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise FormatError(f"non-finite IMU CSV sample at line {lineno}")
    if not rows:
        raise FormatError("IMU CSV has no samples")
    steps = [b - a for a, b in zip(times, times[1:])]
    for lineno, step in enumerate(steps, start=3):
        # write_imu_csv rounds each timestamp to the microsecond, so steps may differ by one
        if step <= 0 or abs(step - steps[0]) > 1:
            raise FormatError(f"IMU CSV timestamp at line {lineno} is {step} us after the last, not {steps[0]}")
    rate = 1_000_000 / steps[0] if steps else 1000.0
    return ImuSequence(np.array(rows), rate, times[0])


def registration_line(reg) -> str:
    return f"{reg.bias_samples},{reg.bias_us},{reg.length},{reg.score!r}"


# --------------------------------------------------------------------------- checkpoints

_CKPT_MAGIC = b"EVCK"


def save_checkpoint(named_arrays: list[tuple[str, np.ndarray]], config_text: str, path: str | Path) -> None:
    """Index of name -> offset followed by one EVSF container per parameter."""
    blobs = [(name, evsf_bytes(arr)) for name, arr in named_arrays]
    index_size = 4 + 4 + len(config_text.encode()) + 4
    for name, _ in blobs:
        index_size += 2 + len(name.encode()) + 8
    out = bytearray()
    out += _CKPT_MAGIC
    cfg = config_text.encode("utf-8")
    out += struct.pack("<I", len(cfg))
    out += cfg
    out += struct.pack("<I", len(blobs))
    offset = index_size
    payload = bytearray()
    for name, blob in blobs:
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<Q", offset)
        payload += blob
        offset += len(blob)
    out += payload
    Path(path).write_bytes(bytes(out))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str]:
    raw = Path(path).read_bytes()
    if raw[:4] != _CKPT_MAGIC:
        raise FormatError("bad checkpoint magic")
    (cfg_len,) = _unpack("<I", raw, 4, "checkpoint config length")
    pos = 8
    config_text = _utf8(_take(raw, pos, cfg_len, "checkpoint config"), pos, "checkpoint config")
    pos += cfg_len
    (count,) = _unpack("<I", raw, pos, "checkpoint entry count")
    pos += 4
    entries = []
    for _ in range(count):
        (name_len,) = _unpack("<H", raw, pos, "checkpoint name length")
        pos += 2
        name = _utf8(_take(raw, pos, name_len, "checkpoint name"), pos, "checkpoint name")
        pos += name_len
        (offset,) = _unpack("<Q", raw, pos, "checkpoint offset")
        pos += 8
        entries.append((name, offset))
    arrays: dict[str, np.ndarray] = {}
    for i, (name, offset) in enumerate(entries):
        end = entries[i + 1][1] if i + 1 < len(entries) else len(raw)
        arrays[name] = evsf_from_bytes(raw[offset:end])
    return arrays, config_text


def config_to_text(config) -> str:
    lines = [f"{f.name}={getattr(config, f.name)!r}" for f in dc_fields(config)]
    return "\n".join(lines) + "\n"


def config_from_text(text: str, cls):
    """Flat ``key=value`` lines for the dataclass ``cls``.  Keys must be fields
    of ``cls`` and values Python literals of the field default's type (an int
    also serves a float field); anything else is a FormatError naming the line."""
    defaults = {f.name: f.default for f in dc_fields(cls)}
    kwargs = {}
    for lineno, line in enumerate(text.strip().split("\n"), start=1):
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in defaults:
            raise FormatError(f"unknown config key {key!r} at line {lineno}")
        try:
            kwargs[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError) as exc:
            raise FormatError(f"config key {key!r} at line {lineno}: {value!r} is not a literal") from exc
        want = type(defaults[key])
        if type(kwargs[key]) is not want and not (want is float and type(kwargs[key]) is int):
            raise FormatError(f"config key {key!r} at line {lineno}: expected {want.__name__}, got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise FormatError(f"config rejected: {exc}") from exc


def read_config(path: str | Path, cls):
    """``config_from_text`` over a UTF-8 file."""
    return config_from_text(_utf8(Path(path).read_bytes(), 0, f"config {path}"), cls)


# --------------------------------------------------------------------------- manifests


def content_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
