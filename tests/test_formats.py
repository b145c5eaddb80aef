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
    registration_line,
    save_checkpoint,
    write_events,
    write_events_csv,
    write_evsf,
    write_imu_csv,
    write_pgm,
    write_ppm,
)
from evseen.imaging import RawImage, RgbImage
from evseen.imu import ImuSequence, Registration
from evseen.seenet import SeeNetConfig


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

    def test_csv_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y,t_us,p\n1,2,3,+1\n1,2\n")
        with pytest.raises(FormatError, match="line 3"):
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

    def test_config_text_round_trip(self):
        from evseen.seenet import SeeNetConfig

        cfg = SeeNetConfig(channels=24, heads=3, prompt_merge="multiply", epsilon=2e-3)
        text = config_to_text(cfg)
        back = config_from_text(text, SeeNetConfig)
        assert back == cfg


class TestTruncation:
    """Every strict prefix of a valid file, header bytes included, is a FormatError."""

    @staticmethod
    def assert_every_prefix_fails(raw, path, reader):
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(FormatError):
                reader(path)

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
        ],
    )
    def test_bad_lines_name_line_and_key(self, text, message):
        with pytest.raises(FormatError, match=message):
            config_from_text(text, SeeNetConfig)

    def test_int_serves_float_field(self):
        assert config_from_text("lambda1=2\n", SeeNetConfig).lambda1 == 2

    def test_read_config_rejects_non_utf8(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_bytes(b"bayer='\xff'\n")
        with pytest.raises(FormatError, match="byte 7"):
            read_config(p, SeeNetConfig)
