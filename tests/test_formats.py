import re
import struct
import warnings

import numpy as np
import pytest

from evseen.events import EventStream
from evseen.formats import (
    FormatError,
    config_from_text,
    config_to_text,
    evsf_bytes,
    evsf_from_bytes,
    load_checkpoint,
    read_config,
    read_events,
    read_events_csv,
    read_evsf,
    read_imu_csv,
    read_pgm,
    read_ppm,
    read_scene_manifest,
    registration_line,
    save_checkpoint,
    write_events,
    write_events_csv,
    write_evsf,
    write_imu_csv,
    write_pgm,
    write_ppm,
    write_scene_manifest,
)
from evseen.imaging import RawImage, RgbImage
from evseen.imu import ImuSequence, Registration
from evseen.pairing import synth_scene
from evseen import seenet
from evseen.seenet import SeeNetConfig, init_params, load_params, parameter_count, save_params


def sample_stream(seed=0, n=64) -> EventStream:
    rng = np.random.default_rng(seed)
    return EventStream(
        32,
        24,
        rng.integers(0, 32, n),
        rng.integers(0, 24, n),
        np.sort(rng.integers(0, 100_000, n)),
        rng.choice([-1, 1], n),
    )


class TestImages:
    def test_ppm_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        img = RgbImage(rng.uniform(0, 1, (11, 7, 3)))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(img, p1)
        write_ppm(read_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pgm_round_trip_8_and_12_bit(self, tmp_path):
        rng = np.random.default_rng(2)
        for depth in (8, 12):
            raw = RawImage(rng.integers(0, 2**depth, (9, 5)).astype(np.uint16), depth)
            p1, p2 = tmp_path / f"a{depth}.pgm", tmp_path / f"b{depth}.pgm"
            write_pgm(raw, p1)
            back = read_pgm(p1)
            assert back.bit_depth == depth
            assert (back.values == raw.values).all()
            write_pgm(back, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_ppm_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_ppm(p)

    @pytest.mark.parametrize("header", [b"P6\nxx 2\n255\n", b"P6\n-1 -1\n255\n", b"P6\n+2 2\n255\n"])
    def test_ppm_non_numeric_header_names_byte(self, tmp_path, header):
        p = tmp_path / "bad.ppm"
        p.write_bytes(header + bytes(12))
        with pytest.raises(FormatError, match="at byte 3"):
            read_ppm(p)

    def test_pgm_sample_above_maxval_names_byte(self, tmp_path):
        p = tmp_path / "a.pgm"
        write_pgm(RawImage(np.zeros((2, 3), dtype=np.uint16), 12), p)
        raw = bytearray(p.read_bytes())
        raw[-4] = 0x10  # the fifth of six big-endian samples becomes 4096
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"byte {len(raw) - 4}"):
            read_pgm(p)


class TestEvsf:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(4, 5, 6)).astype(np.float32).astype(np.float64)
        p1, p2 = tmp_path / "a.evsf", tmp_path / "b.evsf"
        write_evsf(arr, p1)
        back = read_evsf(p1)
        assert (back == arr).all()
        write_evsf(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self):
        blob = evsf_bytes(np.zeros((2, 3)))
        assert blob[:4] == b"EVSF"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 3
        assert len(blob) == 16 + 6 * 4

    def test_truncated_payload(self):
        blob = evsf_bytes(np.ones(10))
        with pytest.raises(FormatError):
            evsf_from_bytes(blob[:-4])

    def test_dims_too_big_for_reshape(self):
        # an empty payload that reshape still rejects: 0 x (2^32 - 1)^3
        blob = b"EVSF" + (4).to_bytes(4, "little") + bytes(4) + b"\xff" * 12
        with pytest.raises(FormatError, match="EVSF dims"):
            evsf_from_bytes(blob)


class TestEvents:
    def test_binary_round_trip(self, tmp_path):
        stream = sample_stream()
        p1, p2 = tmp_path / "a.evt0", tmp_path / "b.evt0"
        write_events(stream, p1)
        back = read_events(p1)
        assert back.width == stream.width and back.height == stream.height
        assert (back.xs == stream.xs).all() and (back.ts == stream.ts).all()
        write_events(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_record_layout(self, tmp_path):
        stream = EventStream(4, 4, [2], [3], [123456789], [-1])
        p = tmp_path / "one.evt0"
        write_events(stream, p)
        raw = p.read_bytes()
        assert raw[:4] == b"EVT0"
        assert len(raw) == 16 + 13

    def test_csv_round_trip(self, tmp_path):
        stream = sample_stream(4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_events_csv(stream, p1)
        back = read_events_csv(p1, stream.width, stream.height)
        write_events_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("t", [-(2**63), 2**63 - 1])
    def test_csv_round_trips_each_int64_end(self, tmp_path, t):
        stream = EventStream(4, 4, [1], [2], [t], [-1])
        p = tmp_path / "end.csv"
        write_events_csv(stream, p)
        back = read_events_csv(p, 4, 4)
        assert back.ts.tolist() == [t] and (back.xs[0], back.ys[0], back.ps[0]) == (1, 2, -1)

    def test_csv_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,t_us,p\n1,2,3,+1\n1,2\n")
        with pytest.raises(FormatError, match="line 3"):
            read_events_csv(p, 4, 4)

    @pytest.mark.parametrize("row", ["4,0,5,+1", "0,-1,5,+1", "0,0,5,+2", "0,0,5,0", f"0,0,{2**63},+1", f"0,0,{-(2**63) - 1},+1"])
    def test_csv_row_off_sensor_or_polarity_reports_line(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"x,y,t_us,p\n1,2,3,+1\n{row}\n")
        with pytest.raises(FormatError, match="line 3"):
            read_events_csv(p, 4, 4)

    @pytest.mark.parametrize("at, value", [(0, b"\x20\x00"), (2, b"\x18\x00"), (12, b"\x00"), (12, b"\x80")])
    def test_binary_record_off_sensor_or_polarity_names_byte(self, tmp_path, at, value):
        # record layout: x u16 at 0, y u16 at 2, t i64 at 4, p i8 at 12; the sensor is 32 x 24
        p = tmp_path / "a.evt0"
        write_events(sample_stream(n=3), p)
        raw = bytearray(p.read_bytes())
        record = 16 + 13  # the second record
        raw[record + at : record + at + len(value)] = value
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"record at byte {record}"):
            read_events(p)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_read_stream_is_sorted_and_owns_contiguous_arrays(self, tmp_path, shuffle):
        """The records are strided, read-only views of the file's bytes; the stream
        keeps copies, sorted whatever order the file holds."""
        stream = sample_stream(7)
        order = np.random.default_rng(7).permutation(len(stream)) if shuffle else np.arange(len(stream))
        records = np.empty(len(stream), dtype=[("x", "<u2"), ("y", "<u2"), ("t", "<i8"), ("p", "i1")])
        for field, values in zip("xytp", (stream.xs, stream.ys, stream.ts, stream.ps)):
            records[field] = values[order]
        p = tmp_path / "a.evt0"
        p.write_bytes(b"EVT0" + struct.pack("<HHQ", stream.width, stream.height, len(stream)) + records.tobytes())
        back = read_events(p)
        for got, want in zip((back.xs, back.ys, back.ts, back.ps), (stream.xs, stream.ys, stream.ts, stream.ps)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable

    def test_csv_rows_out_of_order_are_sorted(self, tmp_path):
        stream = sample_stream(8, n=40)
        p = tmp_path / "shuffled.csv"
        rows = [f"{x},{y},{t},{q:+d}" for x, y, t, q in zip(stream.xs, stream.ys, stream.ts, stream.ps)]
        shuffled = [rows[i] for i in np.random.default_rng(8).permutation(len(rows))]
        assert shuffled != rows
        p.write_text("\n".join(["x,y,t_us,p", *shuffled]) + "\n")
        back = read_events_csv(p, stream.width, stream.height)
        for got, want in zip((back.xs, back.ys, back.ts, back.ps), (stream.xs, stream.ys, stream.ts, stream.ps)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_csv_non_utf8(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"x,y,t_us,p\n1,2,3,+1\xff\n")
        with pytest.raises(FormatError, match="not UTF-8 at byte 19"):
            read_events_csv(p, 4, 4)


class TestImu:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        seq = ImuSequence(rng.normal(size=(40, 6)), 1000.0, 5_000)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_imu_csv(seq, p1)
        back = read_imu_csv(p1)
        assert back.rate_hz == 1000.0
        assert back.t0_us == 5_000
        assert (back.samples == seq.samples).all()
        write_imu_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_us,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n1000,oops,2,3,4,5,6\n")
        with pytest.raises(FormatError, match="line 3"):
            read_imu_csv(p)

    def test_uneven_rate_round_trip_accepted(self, tmp_path):
        # 300 Hz: rounded timestamps step by 3333 or 3334 us
        p = tmp_path / "a.csv"
        write_imu_csv(ImuSequence(np.zeros((10, 6)), 300.0), p)
        assert read_imu_csv(p).rate_hz == 300.0

    @pytest.mark.parametrize("rate", [300.0, 1000.0, 333.0, 120.0])
    def test_round_trip_bytes_at_every_length(self, tmp_path, rate):
        # the mean step alone is off the true period unless (n - 1) * period is whole
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for n in range(2, 40):
            write_imu_csv(ImuSequence(np.zeros((n, 6)), rate, 7), p1)
            back = read_imu_csv(p1)
            assert back.rate_hz == rate, n
            write_imu_csv(back, p2)
            assert p1.read_bytes() == p2.read_bytes(), n

    @pytest.mark.parametrize(
        "rate", [1234.5678, 300.0, 1000.0, 333.0, 700.0, 30.0, 299.7, 777.7777, 2048.0001, 999.99, 123.456789]
    )
    def test_round_trip_bytes_long_files(self, tmp_path, rate):
        # a short file admits a shorter rate that rewrites the same timestamps; 10,000 rows pin the rate itself
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for n in (2, 3, 7, 59, 1000, 10_000):
            write_imu_csv(ImuSequence(np.zeros((n, 6)), rate, 7), p1)
            back = read_imu_csv(p1)
            write_imu_csv(back, p2)
            assert p1.read_bytes() == p2.read_bytes(), n
        assert back.rate_hz == rate

    @pytest.mark.parametrize(
        "times, line",
        [((0, 0), 3), ((0, 1000, 0), 4), ((0, 1000, 2002), 4), ((0, 1000, 1998), 4), ((0, -1000), 3)],
    )
    def test_uneven_timestamps_report_line(self, tmp_path, times, line):
        p = tmp_path / "bad.csv"
        p.write_text("t_us,ax,ay,az,gx,gy,gz\n" + "".join(f"{t},1,2,3,4,5,6\n" for t in times))
        with pytest.raises(FormatError, match=f"line {line}"):
            read_imu_csv(p)

    def test_non_finite_sample_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_us,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n1000,1,2,inf,4,5,6\n")
        with pytest.raises(FormatError, match="line 3"):
            read_imu_csv(p)

    def test_non_utf8(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"t_us,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,\xe96\n")
        with pytest.raises(FormatError, match="not UTF-8 at byte 35"):
            read_imu_csv(p)

    def test_registration_line(self):
        reg = Registration(137, 137000, 5000, 0.25)
        assert registration_line(reg) == "137,137000,5000,0.25"


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        named = [("a.w", rng.normal(size=(3, 4))), ("a.b", rng.normal(size=4))]
        named = [(n, arr.astype(np.float32).astype(np.float64)) for n, arr in named]
        p1, p2 = tmp_path / "a.evck", tmp_path / "b.evck"
        save_checkpoint(named, "k=1\n", p1)
        arrays, text = load_checkpoint(p1)
        assert text == "k=1\n"
        assert set(arrays) == {"a.w", "a.b"}
        save_checkpoint(sorted(arrays.items()), text, p2)
        # same name order as the original save
        save_checkpoint([(n, arrays[n]) for n, _ in named], text, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_parameter_shape(self, tmp_path):
        cfg = SeeNetConfig(channels=4, heads=2, loop_count=1, decoder_layers=2, voxel_bins=2, pos_dim=3)
        named = [(name, t.data) for name, t in init_params(cfg).named_tensors()]
        named[1] = (named[1][0], np.zeros(5))
        p = tmp_path / "a.evck"
        save_checkpoint(named, config_to_text(cfg), p)
        with pytest.raises(FormatError, match=f"{named[1][0]} has shape"):
            load_params(p)

    def test_surplus_array_rejected(self, tmp_path):
        cfg = SeeNetConfig(channels=4, heads=2, loop_count=1, decoder_layers=2, voxel_bins=2, pos_dim=3)
        named = [(name, t.data) for name, t in init_params(cfg).named_tensors()] + [("bogus", np.zeros(7))]
        p = tmp_path / "a.evck"
        save_checkpoint(named, config_to_text(cfg), p)
        with pytest.raises(FormatError, match="checkpoint array bogus is not a parameter of its config"):
            load_params(p)

    def test_duplicate_name_names_its_index_offset(self, tmp_path):
        named = [("a.w", np.ones((2, 2))), ("a.b", np.zeros(2)), ("a.w", np.zeros((2, 2)))]
        p = tmp_path / "a.evck"
        save_checkpoint(named, "k=1\n", p)
        # magic, config length, config text, entry count, then (u16 length, name, u64 offset) per entry
        offset = 4 + 4 + len("k=1\n") + 4 + sum(2 + len(name) + 8 for name, _ in named[:2])
        with pytest.raises(FormatError, match=f"checkpoint index entry at byte {offset} repeats the name 'a.w'"):
            load_checkpoint(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_parameter_and_byte(self, tmp_path, bad):
        named = [("a.w", np.ones((2, 3))), ("a.b", np.array([0.5, 12345.0, 0.25]))]
        p = tmp_path / "a.evck"
        save_checkpoint(named, "k=1\n", p)
        raw = p.read_bytes()
        at = raw.find(struct.pack("<f", 12345.0))
        p.write_bytes(raw[:at] + struct.pack("<f", bad) + raw[at + 4 :])
        # index, a.w's 40-byte EVSF blob, a.b's 12-byte EVSF header, then its second value
        assert at == 4 + 4 + len("k=1\n") + 4 + (2 + 3 + 8) * 2 + 40 + 12 + 4
        with pytest.raises(FormatError, match=f"checkpoint parameter a.b holds a non-finite value at byte {at}"):
            load_checkpoint(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -3.5e38])
    def test_value_not_finite_as_float32_refused_before_writing(self, tmp_path, bad):
        p = tmp_path / "a.evck"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy cast warning either
            with pytest.raises(OverflowError, match="checkpoint parameter a.b has a value that is not finite as float32"):
                save_checkpoint([("a.w", np.ones(2)), ("a.b", np.array([0.5, bad]))], "k=1\n", p)
        assert not p.exists()

    @pytest.mark.parametrize("channels, short", [(4, 1), (1_000_000, None)])
    def test_undersized_checkpoint_rejected_before_allocating(self, tmp_path, monkeypatch, channels, short):
        """A checkpoint holding fewer values than its config's parameter count is
        a FormatError before any parameter is allocated."""
        cfg = SeeNetConfig(channels=channels, heads=2, loop_count=1, decoder_layers=2, voxel_bins=2, pos_dim=3)
        if short is None:
            named = [("x", np.zeros(3))]
        else:
            named = [(name, t.data) for name, t in init_params(cfg).named_tensors()]
            named[-1] = (named[-1][0], named[-1][1][:-short])
        stored = sum(arr.size for _, arr in named)
        p = tmp_path / "a.evck"
        save_checkpoint(named, config_to_text(cfg), p)

        def no_allocation(config):
            raise AssertionError("parameters allocated")

        monkeypatch.setattr(seenet, "init_params", no_allocation)
        with pytest.raises(FormatError, match=f"checkpoint stores {stored} values, its config needs {parameter_count(cfg)}"):
            load_params(p)

    def test_config_text_round_trip(self):
        from evseen.seenet import SeeNetConfig

        cfg = SeeNetConfig(channels=24, heads=3, prompt_merge="multiply", epsilon=2e-3)
        text = config_to_text(cfg)
        back = config_from_text(text, SeeNetConfig)
        assert back == cfg


def _write_imu(path):
    write_imu_csv(ImuSequence(np.random.default_rng(7).normal(size=(12, 6)), 300.0, 5_000), path)


def _write_checkpoint(path):
    cfg = SeeNetConfig(channels=4, heads=2, loop_count=1, decoder_layers=2, voxel_bins=2, pos_dim=3)
    save_params(init_params(cfg), cfg, path)


def _write_scene_manifest(path):
    for i, name in enumerate(("r0", "r1")):
        (path.parent / name).mkdir(exist_ok=True)
        write_ppm(RgbImage(np.random.default_rng(i).uniform(0, 1, (2, 3, 3))), path.parent / name / "frame_000.ppm")
        write_events(sample_stream(i, n=2), path.parent / name / "events.evt0")
    path.write_text("s,low,r0,r0/events.evt0,0.25\ns,normal,r1,r1/events.evt0,1.0\n")


# (file name, writer of one valid file, reader) for every reader of the program
READERS = [
    ("a.evt0", lambda p: write_events(sample_stream(n=12), p), read_events),
    ("a.evsf", lambda p: write_evsf(np.arange(24.0).reshape(2, 3, 4), p), read_evsf),
    ("a.evck", _write_checkpoint, load_params),
    ("a.ppm", lambda p: write_ppm(RgbImage(np.random.default_rng(8).uniform(0, 1, (5, 4, 3))), p), read_ppm),
    ("a.pgm", lambda p: write_pgm(RawImage(np.random.default_rng(9).integers(0, 4096, (5, 4)), 12), p), read_pgm),
    ("b.pgm", lambda p: write_pgm(RawImage(np.random.default_rng(9).integers(0, 256, (5, 4)), 8), p), read_pgm),
    ("e.csv", lambda p: write_events_csv(sample_stream(n=12), p), lambda p: read_events_csv(p, 32, 24)),
    ("i.csv", _write_imu, read_imu_csv),
    ("c.txt", lambda p: p.write_text(config_to_text(SeeNetConfig())), lambda p: read_config(p, SeeNetConfig)),
    ("scene.txt", _write_scene_manifest, read_scene_manifest),
]


class TestTruncation:
    """Every strict prefix of a valid file, header bytes included, is a FormatError;
    under truncation and seeded bit flips every reader returns a value or raises
    FormatError, nothing else."""

    @staticmethod
    def assert_every_prefix_fails(raw, path, reader):
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(FormatError):
                reader(path)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("name, write, reader", READERS, ids=[r[0] for r in READERS])
    def test_prefixes_and_bit_flips_raise_only_format_error(self, tmp_path, name, write, reader):
        path = tmp_path / name
        write(path)
        raw = path.read_bytes()
        rng = np.random.default_rng(len(raw))
        variants = [raw[:n] for n in range(len(raw))]
        for _ in range(400):
            flipped = bytearray(raw)
            for bit in rng.choice(8 * len(raw), size=rng.integers(1, 3), replace=False):
                flipped[bit // 8] ^= 1 << (bit % 8)
            variants.append(bytes(flipped))
        for variant in variants:
            path.write_bytes(variant)
            try:
                reader(path)
            except FormatError:
                pass

    def test_events(self, tmp_path):
        p = tmp_path / "a.evt0"
        write_events(sample_stream(n=3), p)
        self.assert_every_prefix_fails(p.read_bytes(), p, read_events)

    def test_evsf(self, tmp_path):
        p = tmp_path / "a.evsf"
        write_evsf(np.arange(6.0).reshape(2, 3), p)
        self.assert_every_prefix_fails(p.read_bytes(), p, read_evsf)

    def test_checkpoint(self, tmp_path):
        p = tmp_path / "a.evck"
        save_checkpoint([("a.w", np.ones((2, 2))), ("a.b", np.zeros(2))], "name='\u00e9t\u00e9'\n", p)
        self.assert_every_prefix_fails(p.read_bytes(), p, load_checkpoint)

    def test_error_names_byte_offset(self, tmp_path):
        p = tmp_path / "a.evt0"
        write_events(sample_stream(n=3), p)
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(FormatError, match="EVT0 header at byte 4"):
            read_events(p)

    def test_non_utf8_checkpoint_config(self, tmp_path):
        p = tmp_path / "a.evck"
        save_checkpoint([("a.b", np.zeros(2))], "k=1\n", p)
        raw = bytearray(p.read_bytes())
        raw[8] = 0xFF  # first byte of the config text
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 8"):
            load_checkpoint(p)


class TestSceneManifest:
    def test_round_trip_bytes(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        write_scene_manifest(synth_scene(5, (0.125, 1.0), width=8, height=8, frames=3), tmp_path / "a" / "scene.txt")
        write_scene_manifest(read_scene_manifest(tmp_path / "a" / "scene.txt"), tmp_path / "b" / "scene.txt")
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert len(files) == 1 + 2 * (3 + 1)
        assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("index, scene_id", [(1, "lab,a"), (1, "lab\nb"), (0, " lab")])
    def test_unreadable_scene_id_rejected_before_writing(self, tmp_path, index, scene_id):
        recordings = synth_scene(5, (0.125, 1.0), width=8, height=8, frames=2)
        recordings[index].scene_id = scene_id
        with pytest.raises(ValueError, match=f"recording {index}: scene id {re.escape(repr(scene_id))}"):
            write_scene_manifest(recordings, tmp_path / "scene.txt")
        assert list(tmp_path.iterdir()) == []

    def test_reads_recordings(self, tmp_path):
        path = tmp_path / "scene.txt"
        _write_scene_manifest(path)
        low, normal = read_scene_manifest(path)
        assert (low.lighting_class, low.exposure_scale, normal.exposure_scale) == ("low", 0.25, 1.0)
        assert np.array_equal(low.frames[0].values, read_ppm(tmp_path / "r0" / "frame_000.ppm").values)
        assert np.array_equal(normal.events.ts, read_events(tmp_path / "r1" / "events.evt0").ts)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("s,low,r0,r0/events.evt0", "malformed scene manifest row at line 2"),
            ("s,dusk,r0,r0/events.evt0,0.25", "line 2: lighting class 'dusk'"),
            ("s,low,r0,r0/events.evt0,x0.125", "line 2: .*'x0.125'"),
            ("s,low,r0,r0/events.evt0,nan", "line 2: exposure scale 'nan'"),
            ("s,low,r0,r0/events.evt0,0", "line 2: exposure scale '0'"),
            ("s,low,r9,r0/events.evt0,0.25", "line 2: no frames under"),
            ("s,low,r0,r0/missing.evt0,0.25", "line 2: .*missing.evt0"),
        ],
    )
    def test_bad_row_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "scene.txt"
        _write_scene_manifest(path)
        path.write_text(path.read_text().split("\n")[0] + "\n" + line + "\n")
        with pytest.raises(FormatError, match=message):
            read_scene_manifest(path)

    def test_non_utf8_names_the_byte(self, tmp_path):
        path = tmp_path / "scene.txt"
        _write_scene_manifest(path)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\xff")
        with pytest.raises(FormatError, match=f"not UTF-8 at byte {len(raw)}"):
            read_scene_manifest(path)


class TestConfigText:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("channels=8\nbogus=3\n", "unknown config key 'bogus' at line 2"),
            ("channels=8 8\n", "config key 'channels' at line 1"),
            ("heads=[1\n", "config key 'heads' at line 1"),
            ("heads\n", "config key 'heads' at line 1"),
            ("channels='16'\n", "config key 'channels' at line 1: expected int"),
            ("lambda1=True\n", "config key 'lambda1' at line 1: expected float"),
            ("channels=16\nchannels=32\n", "config key 'channels' at line 2 is given twice"),
        ],
    )
    def test_bad_lines_name_line_and_key(self, text, message):
        with pytest.raises(FormatError, match=message):
            config_from_text(text, SeeNetConfig)

    @pytest.mark.parametrize(
        "text",
        [
            "heads=0\n",
            "channels=0\n",
            "channels=15\n",
            "bayer='XYZW'\n",
            "epsilon=0\n",
            "lambda1=-1.0\n",
            "lambda2=1e999\n",
            "epsilon=1e999\n",
        ],
    )
    def test_values_the_config_rejects(self, text):
        with pytest.raises(FormatError, match="config rejected"):
            config_from_text(text, SeeNetConfig)

    def test_int_serves_float_field(self):
        assert config_from_text("lambda1=2\n", SeeNetConfig).lambda1 == 2

    def test_read_config_rejects_non_utf8(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_bytes(b"bayer='\xff'\n")
        with pytest.raises(FormatError, match="byte 7"):
            read_config(p, SeeNetConfig)
