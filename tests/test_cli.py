import argparse
import json
import os
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import count_calls, shifted_imu_pair, textured_image
from evseen import align, formats, seenet
from evseen.cli import build_parser, main
from evseen.imaging import RgbImage
from evseen.pairing import synth_scene


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "evseen", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},  # the package as this process imports it
        timeout=timeout,
    )
    return proc


@pytest.fixture(scope="module")
def field_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("field") / "field.evsf"
    rng = np.random.default_rng(0)
    stack = rng.uniform(0.1, 1.0, (6, 16, 16)).astype(np.float32).astype(np.float64)
    formats.write_evsf(stack, path)
    return path


@pytest.fixture(scope="module")
def imu_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("imu")
    source, target, shift = shifted_imu_pair(17, n=5000, shift=137, sigma=1e-3)
    formats.write_imu_csv(source, base / "source.csv")
    formats.write_imu_csv(target, base / "target.csv")
    return base / "source.csv", base / "target.csv", shift


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train") / "run"
    code = main(["train-toy", "--seed", "0", "--steps", "40", "--lr", "0.15", "--out", str(out)])
    assert code == 0
    return out


class TestExitCodes:
    def test_unknown_subcommand_usage_exit(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1
        assert "usage" in (proc.stderr + proc.stdout).lower()

    def test_missing_subcommand(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_domain_error_bad_threshold(self, field_file, tmp_path):
        code = main(
            ["simulate", "--field", str(field_file), "--threshold", "-1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_nan_threshold_exits_2_and_writes_nothing(self, field_file, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--field", str(field_file), "--threshold", "nan", "--out", str(out)])
        assert code == 2
        assert "threshold must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_missing_file(self, tmp_path):
        code = main(["voxelize", "--events", str(tmp_path / "nope.evt0"), "--out", str(tmp_path)])
        assert code == 3

    def test_io_error_malformed_csv_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_us,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n1000,x,2,3,4,5,6\n")
        code = main(["register-imu", "--source", str(bad), "--target", str(bad)])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("times", [(0, 0), (0, 1000, 500)])
    def test_io_error_uneven_imu_timestamps(self, tmp_path, times, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_us,ax,ay,az,gx,gy,gz\n" + "".join(f"{t},1,2,3,4,5,6\n" for t in times))
        code = main(["register-imu", "--source", str(bad), "--target", str(bad)])
        assert code == 3
        assert f"line {len(times) + 1}" in capsys.readouterr().err

    def test_io_error_non_numeric_ppm_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\nxx 2\n255\n" + bytes(12))
        code = main(["eval-align", "--image-a", str(bad), "--image-b", str(bad)])
        assert code == 3
        assert "byte 3" in capsys.readouterr().err

    def test_flipped_imu_csv_exits_0_or_3(self, tmp_path, capsys):
        source, target, _ = shifted_imu_pair(3, n=64, shift=5)
        formats.write_imu_csv(source, tmp_path / "source.csv")
        formats.write_imu_csv(target, tmp_path / "target.csv")
        raw = (tmp_path / "source.csv").read_bytes()
        argv = ["register-imu", "--source", str(tmp_path / "flipped.csv"), "--target", str(tmp_path / "target.csv")]
        rng = np.random.default_rng(0)
        codes = set()
        for _ in range(60):
            flipped = bytearray(raw)
            for bit in rng.choice(8 * len(raw), size=rng.integers(1, 3), replace=False):
                flipped[bit // 8] ^= 1 << (bit % 8)
            (tmp_path / "flipped.csv").write_bytes(bytes(flipped))
            codes.add(main(argv))
        capsys.readouterr()
        assert codes == {0, 3}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_failure_divergent_training(self, tmp_path, capsys):
        code = main(["train-toy", "--steps", "60", "--lr", "1e150", "--out", str(tmp_path / "x")])
        assert code == 4
        assert capsys.readouterr().err == "numeric failure: non-finite encoder feature at loop iteration 0\n"


class TestSimulateVoxelize:
    def test_simulate_writes_events_and_manifest(self, field_file, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--field",
                str(field_file),
                "--threshold",
                "0.2",
                "--csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "events.evt0").exists()
        assert (out / "events.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["inputs"]

    def test_voxelize_round(self, field_file, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--field", str(field_file), "--threshold", "0.2", "--out", str(sim)]) == 0
        vox = tmp_path / "vox"
        code = main(["voxelize", "--events", str(sim / "events.evt0"), "--bins", "8", "--out", str(vox)])
        assert code == 0
        grid = formats.read_evsf(vox / "voxels.evsf")
        assert grid.shape == (16, 16, 8)

    @pytest.mark.parametrize("bounds", [("50000", "10000"), ("10000", "10000"), ("1000000000", None)])
    def test_reversed_window_exits_2_and_writes_nothing(self, field_file, tmp_path, capsys, bounds):
        """A window with a bound the caller gives is never widened: t_end <= t_start
        (the end here taken from the stream when only --t-start is given) exits 2."""
        sim = tmp_path / "sim"
        assert main(["simulate", "--field", str(field_file), "--threshold", "0.2", "--out", str(sim)]) == 0
        vox = tmp_path / "vox"
        window = ["--t-start", bounds[0]] + (["--t-end", bounds[1]] if bounds[1] else [])
        code = main(["voxelize", "--events", str(sim / "events.evt0"), *window, "--out", str(vox)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: empty time window: t_end ") and err.endswith(f" <= t_start {bounds[0]}\n")
        assert not vox.exists()

    def test_unallocatable_grid_exits_2_and_writes_nothing(self, field_file, tmp_path):
        """10^12 bins over a 16x16 sensor ask for 1.82 PiB, more than any host can map,
        so numpy refuses at once: one line, no traceback."""
        sim = tmp_path / "sim"
        assert main(["simulate", "--field", str(field_file), "--threshold", "0.2", "--out", str(sim)]) == 0
        vox = tmp_path / "vox"
        proc = run_cli("voxelize", "--events", sim / "events.evt0", "--bins", 10**12, "--out", vox, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("domain error: ") and proc.stderr.count("\n") == 1
        assert "PiB" in proc.stderr
        assert not vox.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--t0-us", 9223372036854775000),  # the second of six frames passes 2^63 - 1
            ("--dt-us", 9223372036854775807),  # the third frame passes 2^63 - 1
            ("--dt-us", 10**20),  # past int64 from the second frame
            ("--t0-us", -(2**63), "--dt-us", -1),  # the second frame passes -2^63
        ],
    )
    def test_frame_times_outside_int64_exit_2_in_one_line(self, field_file, tmp_path, flags):
        out = tmp_path / "sim"
        proc = run_cli("simulate", "--field", field_file, *flags, "--out", out, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "domain error: timestamps must fit in int64 microseconds\n"
        assert not out.exists()

    def test_frame_times_at_the_int64_ends_simulate(self, field_file, tmp_path):
        """Six frames 2^63 / 3 apart from -2^63 end inside int64: stamped as given."""
        out = tmp_path / "sim"
        step = 2**63 // 3
        assert main(["simulate", "--field", str(field_file), "--threshold", "0.2", "--t0-us", str(-(2**63)), "--dt-us", str(step), "--out", str(out)]) == 0
        stamps = np.unique(formats.read_events(out / "events.evt0").ts).tolist()
        assert stamps and set(stamps) <= {-(2**63) + i * step for i in range(1, 6)}

    def test_full_int64_window_voxelizes_mid_window(self, field_file, tmp_path):
        """Events at 10,000-50,000 us over [-2^63, 2^63 - 1] sit in the middle bin."""
        sim, vox = tmp_path / "sim", tmp_path / "vox"
        assert main(["simulate", "--field", str(field_file), "--threshold", "0.2", "--out", str(sim)]) == 0
        window = ["--t-start", str(-(2**63)), "--t-end", str(2**63 - 1)]
        assert main(["voxelize", "--events", str(sim / "events.evt0"), "--bins", "5", *window, "--out", str(vox)]) == 0
        total = float(formats.read_events(sim / "events.evt0").ps.sum())
        per_bin = formats.read_evsf(vox / "voxels.evsf").sum(axis=(0, 1))
        assert per_bin[[0, 1, 4]].tolist() == [0.0, 0.0, 0.0]
        assert per_bin[2] == pytest.approx(total, abs=1e-9)

    def test_idempotent_outputs(self, field_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--field", str(field_file), "--threshold", "0.2", "--out", str(out)]) == 0
        assert (a / "events.evt0").read_bytes() == (b / "events.evt0").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        ma.pop("timestamp"), mb.pop("timestamp")
        ma["args"].pop("out"), mb["args"].pop("out")
        ma["outputs"], mb["outputs"] = None, None
        assert ma == mb


class TestRegisterCli:
    def test_known_shift_line(self, imu_files, capsys):
        source, target, shift = imu_files
        code = main(["register-imu", "--source", str(source), "--target", str(target)])
        assert code == 0
        line = capsys.readouterr().out.strip().split("\n")[0]
        bias, bias_us, length, score = line.split(",")
        assert abs(int(bias) - shift) <= 1
        assert int(bias_us) == int(bias) * 1000

    def test_identical_files_zero_bias(self, imu_files, capsys):
        source, _, _ = imu_files
        code = main(["register-imu", "--source", str(source), "--target", str(source)])
        assert code == 0
        assert capsys.readouterr().out.startswith("0,0,")

    def test_oracle_agreement(self, imu_files, capsys):
        source, target, _ = imu_files
        code = main(["register-imu", "--source", str(source), "--target", str(target), "--oracle"])
        assert code == 0
        assert capsys.readouterr().out.strip().split("\n")[-1] == "agree"

    def test_denoise_known_shift(self, imu_files, capsys):
        source, target, shift = imu_files
        code = main(["register-imu", "--source", str(source), "--target", str(target), "--denoise"])
        assert code == 0
        bias, bias_us, length, score = capsys.readouterr().out.strip().split(",")
        assert abs(int(bias) - shift) <= 1
        assert int(bias_us) == int(bias) * 1000

    def test_denoise_oracle_agreement(self, imu_files, capsys):
        source, target, _ = imu_files
        argv = ["register-imu", "--source", str(source), "--target", str(target), "--denoise", "--oracle"]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip().split("\n")[-1] == "agree"


class TestEvalAlignCli:
    def test_identity_pair(self, tmp_path, capsys):
        img = textured_image(3, 64, 64)
        path = tmp_path / "img.ppm"
        formats.write_ppm(img, path)
        code = main(["eval-align", "--image-a", str(path), "--image-b", str(path)])
        assert code == 0
        mean_px, max_px, inliers, matches = capsys.readouterr().out.strip().split(",")
        assert float(mean_px) == 0.0
        assert inliers == matches

    @staticmethod
    def warped_pair(tmp_path):
        img = textured_image(3)
        warp = align.AffineTransform(np.array([[0.9997, -0.0262, 3.0], [0.0262, 0.9997, -1.5]]))
        path_a, path_b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        formats.write_ppm(img, path_a)
        formats.write_ppm(align.warp_affine(img, warp), path_b)
        return path_a, path_b

    def test_prints_the_evaluate_alignment_report(self, tmp_path, capsys):
        path_a, path_b = self.warped_pair(tmp_path)
        out = tmp_path / "t.txt"
        code = main(["eval-align", "--image-a", str(path_a), "--image-b", str(path_b), "--seed", "2", "--transform-out", str(out)])
        assert code == 0
        report = align.evaluate_alignment(formats.read_ppm(path_a), formats.read_ppm(path_b), seed=2)
        assert report.inlier_count >= 3
        line = f"{report.mean_px!r},{report.max_px!r},{report.inlier_count},{report.match_count}\n"
        assert capsys.readouterr().out == line
        assert out.read_text() == report.transform.to_line() + "\n"
        # computed with the per-hypothesis RANSAC loop and per-keypoint descriptor
        # loop, so any change to the stacked code's arithmetic shows here; the
        # closed-form mean displacement of ``warp`` is 1.73302 px
        assert line == "1.728725625164465,3.476018438211456,128,180\n"
        assert out.read_text() == (
            "1.0003318691196792,-0.02610804555232987,2.959727425066196,"
            "0.02595749786250977,1.0001971463125412,-1.5440464239190947\n"
        )

    def test_singular_fits_end_in_a_ransac_failure(self, tmp_path, capsys):
        path_a, path_b = self.warped_pair(tmp_path)
        code = main(["eval-align", "--image-a", str(path_a), "--image-b", str(path_b), "--max-keypoints", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: RANSAC failed: every sampled triple was collinear or fit a singular affine\n"

    def test_zero_iterations_exits_2(self, tmp_path, capsys):
        path = tmp_path / "img.ppm"
        formats.write_ppm(textured_image(3, 64, 64), path)
        code = main(["eval-align", "--image-a", str(path), "--image-b", str(path), "--iterations", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: RANSAC needs at least one iteration, got 0\n"

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_non_positive_max_keypoints_exits_2(self, tmp_path, capsys, count):
        path = tmp_path / "img.ppm"
        formats.write_ppm(textured_image(3, 64, 64), path)
        code = main(["eval-align", "--image-a", str(path), "--image-b", str(path), "--max-keypoints", count])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: keypoint count must be at least 1, got {count}\n"


class TestPairCli:
    def test_synth_pairs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code = main(
            ["pair", "--synth-seed", "5", "--scales", "0.25,0.75,1.0,1.25", "--out", str(out)]
        )
        assert code == 0
        assert "pairs=9" in capsys.readouterr().out
        scene = (out / "scene.txt").read_text().strip().split("\n")
        assert len(scene) == 4
        pairs = (out / "pairs.csv").read_text().strip().split("\n")
        assert len(pairs) == 10  # header + 9

    @pytest.mark.parametrize("scales, shown", [("inf,1", "(inf, 1.0)"), ("nan,1", "(nan, 1.0)"), ("0.5,-1", "(0.5, -1.0)")])
    def test_bad_scales_exit_2_naming_them(self, tmp_path, scales, shown):
        proc = run_cli("pair", "--synth-seed", "1", "--scales", scales, "--out", tmp_path / "scene", timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"domain error: lighting scales must be finite and positive, got {shown}\n"
        assert not (tmp_path / "scene" / "scene.txt").exists()

    @pytest.mark.parametrize("fault, code", [("scales", 2), ("manifest", 3)])
    def test_bad_input_leaves_no_directory(self, tmp_path, capsys, fault, code):
        source = {"scales": ["--synth-seed", "1", "--scales", "inf,1"], "manifest": ["--manifest", str(tmp_path / "absent.txt")]}
        out = tmp_path / "scene"
        assert main(["pair", *source[fault], "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_pair_from_manifest(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["pair", "--synth-seed", "5", "--scales", "0.25,0.75,1.0,1.25", "--out", str(out)]) == 0
        capsys.readouterr()
        again = tmp_path / "again"
        code = main(["pair", "--manifest", str(out / "scene.txt"), "--out", str(again)])
        assert code == 0
        assert "pairs=9" in capsys.readouterr().out
        assert (out / "pairs.csv").read_text() == (again / "pairs.csv").read_text()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw.replace(b",0.25\n", b",x0.125\n", 1), "line 1: could not convert string to float: 'x0.125'"),
            (lambda raw: raw.replace(b",low,", b",dusk,", 1), "line 1: lighting class 'dusk'"),
            (lambda raw: raw + b"\xff", "not UTF-8 at byte"),
        ],
        ids=["scale", "lighting", "non_utf8"],
    )
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, edit, message):
        out = tmp_path / "scene"
        assert main(["pair", "--synth-seed", "5", "--scales", "0.25,0.75,1.0,1.25", "--out", str(out)]) == 0
        manifest = out / "scene.txt"
        edited = edit(manifest.read_bytes())
        assert edited != manifest.read_bytes()
        manifest.write_bytes(edited)
        capsys.readouterr()
        assert main(["pair", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 3
        assert message in capsys.readouterr().err


class TestTrainEnhance:
    def test_train_writes_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint.evck").exists()
        assert (trained_dir / "losses.csv").read_text().startswith("step,loss")

    def test_train_determinism(self, tmp_path, capsys):
        lines = []
        for name in ("r1", "r2"):
            code = main(
                ["train-toy", "--seed", "3", "--steps", "12", "--out", str(tmp_path / name)]
            )
            assert code == 0
            lines.append(
                [l for l in capsys.readouterr().out.split("\n") if l.startswith("final_loss=")][0]
            )
        assert lines[0] == lines[1]

    def test_enhance_default_prompt(self, trained_dir, tmp_path, capsys):
        scene = synth_scene(0, lighting_scales=(0.25,), width=16, height=16)
        rec = scene[0]
        img_path = tmp_path / "input.ppm"
        ev_path = tmp_path / "events.evt0"
        formats.write_ppm(rec.frames[0], img_path)
        formats.write_events(rec.events, ev_path)
        out = tmp_path / "enh"
        code = main(
            [
                "enhance",
                "--input",
                str(img_path),
                "--events",
                str(ev_path),
                "--checkpoint",
                str(trained_dir / "checkpoint.evck"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "enhanced_0.50.ppm").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["args"]["prompts"] == [0.5]

    def test_enhance_sweep_grid(self, trained_dir, tmp_path):
        scene = synth_scene(0, lighting_scales=(0.25,), width=16, height=16)
        rec = scene[0]
        img_path = tmp_path / "input.ppm"
        ev_path = tmp_path / "events.evt0"
        formats.write_ppm(rec.frames[0], img_path)
        formats.write_events(rec.events, ev_path)
        out = tmp_path / "sweep"
        code = main(
            [
                "enhance",
                "--input",
                str(img_path),
                "--events",
                str(ev_path),
                "--checkpoint",
                str(trained_dir / "checkpoint.evck"),
                "--prompt-sweep",
                "0.3:0.7:0.1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        images = sorted(out.glob("enhanced_*.ppm"))
        assert len(images) == 5
        assert (out / "sweep_grid.ppm").exists()
        # identical args reproduce byte-identical outputs
        out2 = tmp_path / "sweep2"
        code = main(
            [
                "enhance",
                "--input",
                str(img_path),
                "--events",
                str(ev_path),
                "--checkpoint",
                str(trained_dir / "checkpoint.evck"),
                "--prompt-sweep",
                "0.3:0.7:0.1",
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        for name in ["enhanced_0.30.ppm", "enhanced_0.70.ppm", "sweep_grid.ppm"]:
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_enhance_out_of_range_prompt(self, trained_dir, tmp_path):
        scene = synth_scene(0, lighting_scales=(0.25,), width=16, height=16)
        rec = scene[0]
        img_path = tmp_path / "input.ppm"
        ev_path = tmp_path / "events.evt0"
        formats.write_ppm(rec.frames[0], img_path)
        formats.write_events(rec.events, ev_path)
        code = main(
            [
                "enhance",
                "--input",
                str(img_path),
                "--events",
                str(ev_path),
                "--checkpoint",
                str(trained_dir / "checkpoint.evck"),
                "--prompt",
                "1.5",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_enhance_shape_mismatch(self, trained_dir, tmp_path):
        img_path = tmp_path / "small.ppm"
        formats.write_ppm(RgbImage(np.full((8, 8, 3), 0.5)), img_path)
        scene = synth_scene(0, lighting_scales=(0.25,), width=16, height=16)
        ev_path = tmp_path / "events.evt0"
        formats.write_events(scene[0].events, ev_path)
        code = main(
            [
                "enhance",
                "--input",
                str(img_path),
                "--events",
                str(ev_path),
                "--checkpoint",
                str(trained_dir / "checkpoint.evck"),
                "--out",
                str(tmp_path / "y"),
            ]
        )
        assert code == 2


def enhance_files(tmp_path):
    rec = synth_scene(0, lighting_scales=(0.25,), width=16, height=16)[0]
    img_path, ev_path = tmp_path / "input.ppm", tmp_path / "events.evt0"
    formats.write_ppm(rec.frames[0], img_path)
    formats.write_events(rec.events, ev_path)
    return img_path, ev_path


def enhance(img_path, ev_path, ckpt, out, *extra):
    return main(
        ["enhance", "--input", str(img_path), "--events", str(ev_path), "--checkpoint", str(ckpt), *extra, "--out", str(out)]
    )


class TestEnhanceBoundaries:
    def test_sweep_encodes_once(self, trained_dir, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, seenet, "encode")
        img_path, ev_path = enhance_files(tmp_path)
        ckpt = trained_dir / "checkpoint.evck"
        assert enhance(img_path, ev_path, ckpt, tmp_path / "out", "--prompt-sweep", "0.3:0.7:0.1") == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "out").glob("enhanced_*.ppm"))) == 5

    @pytest.mark.parametrize("which, keep", [("checkpoint", 6), ("checkpoint", 13), ("checkpoint", 20), ("events", 6), ("events", 10), ("events", 14)])
    def test_truncated_input_exits_3(self, trained_dir, tmp_path, which, keep, capsys):
        img_path, ev_path = enhance_files(tmp_path)
        ckpt = tmp_path / "model.evck"
        ckpt.write_bytes((trained_dir / "checkpoint.evck").read_bytes())
        victim = ckpt if which == "checkpoint" else ev_path
        victim.write_bytes(victim.read_bytes()[:keep])
        assert enhance(img_path, ev_path, ckpt, tmp_path / "out") == 3
        assert "truncated" in capsys.readouterr().err

    def test_non_utf8_checkpoint_config_exits_3(self, trained_dir, tmp_path):
        img_path, ev_path = enhance_files(tmp_path)
        raw = bytearray((trained_dir / "checkpoint.evck").read_bytes())
        raw[8] = 0xFF  # first byte of the config text
        ckpt = tmp_path / "model.evck"
        ckpt.write_bytes(bytes(raw))
        assert enhance(img_path, ev_path, ckpt, tmp_path / "out") == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"bogus=3\n", "'bogus' at line 1"),
            (b"channels=8 8\n", "'channels' at line 1"),
            (b"heads=[1\n", "'heads' at line 1"),
            (b"channels='8'\n", "'channels' at line 1"),
            (b"bayer='\xff'\n", "not UTF-8 at byte 7"),
            (b"lambda1=-1.0\n", "lambda1 and lambda2 must be finite and >= 0"),
            (b"lambda2=1e999\n", "lambda1 and lambda2 must be finite and >= 0"),
            (b"epsilon=1e999\n", "epsilon must be finite and positive"),
            (b"channels=16\nchannels=32\n", "'channels' at line 2 is given twice"),
        ],
    )
    def test_bad_config_file_exits_3(self, tmp_path, text, message, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(text)
        assert main(["train-toy", "--steps", "1", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 3
        assert message in capsys.readouterr().err

    def test_undersized_checkpoint_exits_3(self, tmp_path):
        """A checkpoint of 3 values whose config asks for a million channels is
        refused before the parameters are allocated: one line, no traceback."""
        img_path, ev_path = enhance_files(tmp_path)
        ckpt = tmp_path / "model.evck"
        formats.save_checkpoint([("x", np.zeros(3))], formats.config_to_text(seenet.SeeNetConfig(channels=1_000_000)), ckpt)
        out = tmp_path / "out"
        proc = run_cli("enhance", "--input", img_path, "--events", ev_path, "--checkpoint", ckpt, "--out", out, timeout=60)
        needed = seenet.parameter_count(seenet.SeeNetConfig(channels=1_000_000))
        assert proc.returncode == 3
        assert proc.stderr == f"i/o error: checkpoint stores 3 values, its config needs {needed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["surplus", "duplicate"])
    def test_checkpoint_outside_its_layout_exits_3(self, trained_dir, tmp_path, fault, capsys):
        img_path, ev_path = enhance_files(tmp_path)
        arrays, text = formats.load_checkpoint(trained_dir / "checkpoint.evck")
        named = list(arrays.items())
        named.append(("bogus", np.zeros(7)) if fault == "surplus" else named[0])
        ckpt = tmp_path / "model.evck"
        formats.save_checkpoint(named, text, ckpt)
        out = tmp_path / "out"
        assert enhance(img_path, ev_path, ckpt, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert ("bogus" if fault == "surplus" else repr(named[0][0])) in err
        assert not out.exists()

    @pytest.mark.parametrize("name, bad", [("decoder.0.w", np.nan), ("prompt_out.b", np.nan), ("fuse.wq.w", np.inf)])
    def test_non_finite_checkpoint_exits_3(self, trained_dir, tmp_path, name, bad):
        """A NaN in the first decoder layer would pass through its relu unseen;
        every non-finite value is refused at load, naming its parameter and byte."""
        img_path, ev_path = enhance_files(tmp_path)
        arrays, text = formats.load_checkpoint(trained_dir / "checkpoint.evck")
        arrays[name].flat[0] = 12345.0  # a marker no trained weight takes
        ckpt = tmp_path / "model.evck"
        formats.save_checkpoint(list(arrays.items()), text, ckpt)
        raw = ckpt.read_bytes()
        at = raw.find(struct.pack("<f", 12345.0))
        ckpt.write_bytes(raw[:at] + struct.pack("<f", bad) + raw[at + 4 :])
        out = tmp_path / "out"
        proc = run_cli("enhance", "--input", img_path, "--events", ev_path, "--checkpoint", ckpt, "--out", out, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == f"i/o error: checkpoint parameter {name} holds a non-finite value at byte {at}\n"
        assert not out.exists()

    @pytest.mark.parametrize("prefix, where", [("head_image_", "encoder feature at loop iteration 0"), ("decoder.", "decoder output")])
    def test_float32_overflow_exits_4_in_one_line(self, trained_dir, tmp_path, prefix, where):
        """Weights that are finite as float32 but whose activations are not end
        in one numeric-failure line and write nothing: inference runs in float32."""
        img_path, ev_path = enhance_files(tmp_path)
        arrays, text = formats.load_checkpoint(trained_dir / "checkpoint.evck")
        ckpt = tmp_path / "model.evck"
        formats.save_checkpoint([(n, a * 1e30 if n.startswith(prefix) else a) for n, a in arrays.items()], text, ckpt)
        out = tmp_path / "out"
        proc = run_cli("enhance", "--input", img_path, "--events", ev_path, "--checkpoint", ckpt, "--out", out, timeout=60)
        assert proc.returncode == 4
        assert proc.stderr == f"numeric failure: non-finite {where} (inference runs in float32)\n"
        assert not out.exists()

    def test_prompt_and_sweep_exclusive(self, trained_dir, tmp_path):
        img_path, ev_path = enhance_files(tmp_path)
        out = tmp_path / "out"
        proc = run_cli(
            "enhance", "--input", img_path, "--events", ev_path, "--checkpoint", trained_dir / "checkpoint.evck",
            "--prompt", "0.5", "--prompt-sweep", "0.3:0.4:0.1", "--out", out, timeout=60,
        )
        assert proc.returncode == 1
        errors = [line for line in proc.stderr.splitlines() if not line.startswith(("usage:", " "))]
        assert errors == ["error: argument --prompt-sweep: not allowed with argument --prompt"]
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("0.3:inf:0.1", "finite"),
            ("nan:1:0.1", "finite"),
            ("0.3:0.7:nan", "finite"),
            ("0:0.5:0.1", "0 < start <= stop < 1"),
            ("0.5:1.2:0.1", "0 < start <= stop < 1"),
            ("0.7:0.3:0.1", "0 < start <= stop < 1"),
            ("0.3:0.7:-0.1", "at least 0.01"),
            ("0.3:0.5:1e-20", "at least 0.01"),
            ("0.015:0.99:0.01", "sweep prompts 0.035 and 0.045 would both be written to enhanced_0.04.ppm"),
        ],
    )
    def test_bad_sweep_exits_2_and_writes_nothing(self, trained_dir, tmp_path, spec, message):
        img_path, ev_path = enhance_files(tmp_path)
        out = tmp_path / "out"
        proc = run_cli(
            "enhance", "--input", img_path, "--events", ev_path, "--checkpoint", trained_dir / "checkpoint.evck",
            "--prompt-sweep", spec, "--out", out, timeout=60,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_train_zero_steps_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "t"
        proc = run_cli("train-toy", "--steps", "0", "--out", out, timeout=60)
        assert proc.returncode == 2
        assert "steps must be >= 1" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.5"])
    def test_train_bad_lr_exits_2_and_writes_nothing(self, tmp_path, capsys, lr):
        out = tmp_path / "t"
        code = main(["train-toy", "--steps", "2", "--lr", lr, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "learning rate must be finite and >= 0" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestGradCheckCli:
    def test_pass_line(self, capsys):
        code = main(["grad-check", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS max_rel_err=")
        assert float(out.strip().split("=")[1]) < 1e-3

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_bad_tol_exits_2_before_checking(self, capsys, tol):
        code = main(["grad-check", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert "tolerance must be finite and positive" in captured.err
        assert captured.out == ""


# every numeric flag of every subcommand; "--scales" and "--prompt-sweep" carry the value inside their lists
SWEEP_VALUES = ("0", "-1", "nan", "inf", str(2**63 - 1), str(-(2**63)), str(10**20))
# the exit code for each of SWEEP_VALUES in order; "-" is an accepting run left out because its
# flag sets the run's size or cost (unbounded RANSAC iterations or training steps, a 5 s grad-check)
FLAG_SWEEP = {
    ("simulate", "--t0-us"): "0011202",
    ("simulate", "--dt-us"): "2211222",
    ("simulate", "--threshold"): "2222020",
    ("simulate", "--floor"): "2222020",
    ("voxelize", "--bins"): "2211222",
    ("voxelize", "--t-start"): "0011202",
    ("voxelize", "--t-end"): "2211020",
    ("register-imu", "--l-min-fraction"): "2222222",
    ("eval-align", "--max-keypoints"): "2211020",
    ("eval-align", "--ratio"): "2222222",
    ("eval-align", "--iterations"): "2211-2-",
    ("eval-align", "--inlier-px"): "2222020",
    ("eval-align", "--seed"): "0211020",
    ("pair", "--synth-seed"): "0211020",
    ("pair", "--scales"): "2222020",
    ("train-toy", "--seed"): "0211020",
    ("train-toy", "--steps"): "2211-2-",
    ("train-toy", "--lr"): "0222020",
    ("enhance", "--prompt"): "2222222",
    ("enhance", "--prompt-sweep"): "2222222",
    ("grad-check", "--seed"): "-211-2-",
    ("grad-check", "--tol"): "2222-2-",
}
WRITES_OUT = {"simulate", "voxelize", "pair", "train-toy", "enhance"}
SWEEP_FRAMES = 4


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """Each subcommand's required arguments, on inputs small enough to sweep in-process."""
    base = tmp_path_factory.mktemp("sweep")
    formats.write_evsf(np.random.default_rng(0).uniform(0.1, 1.0, (SWEEP_FRAMES, 8, 8)), base / "field.evsf")
    rec = synth_scene(0, lighting_scales=(0.25,), width=8, height=8, frames=3)[0]
    formats.write_ppm(rec.frames[0], base / "input.ppm")
    formats.write_events(rec.events, base / "events.evt0")
    config = seenet.SeeNetConfig()
    seenet.save_params(seenet.init_params(config), config, base / "model.evck")
    source, target, _ = shifted_imu_pair(1, n=400, shift=7)
    formats.write_imu_csv(source, base / "source.csv")
    formats.write_imu_csv(target, base / "target.csv")
    formats.write_ppm(textured_image(3, 48, 48), base / "image.ppm")
    return {
        "simulate": ["--field", str(base / "field.evsf")],
        "voxelize": ["--events", str(base / "events.evt0")],
        "register-imu": ["--source", str(base / "source.csv"), "--target", str(base / "target.csv")],
        "eval-align": ["--image-a", str(base / "image.ppm"), "--image-b", str(base / "image.ppm")],
        "pair": ["--synth-seed=0"],
        "train-toy": ["--steps=2"],
        "enhance": ["--input", str(base / "input.ppm"), "--events", str(base / "events.evt0"), "--checkpoint", str(base / "model.evck")],
        "grad-check": [],
    }


class TestNumericFlagSweep:
    """The flag-side twin of the reader truncation sweeps.  Sent 0, -1, nan, inf,
    either int64 end or 1e20, every numeric flag exits with the code its table row
    pins, with no traceback and one stderr line (for exit 1, the usage, wrapped at
    the terminal width, then one error line); a run that exits 0 writes output
    that keeps its invariants."""

    def test_table_names_every_numeric_flag(self):
        (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        numeric = {
            (name, action.option_strings[-1])
            for name, sub in subparsers.choices.items()
            for action in sub._actions
            if action.type in (int, float)
        }
        assert numeric <= set(FLAG_SWEEP)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, flag", list(FLAG_SWEEP))
    def test_flag_at_its_extremes(self, sweep_inputs, tmp_path, capsys, command, flag):
        for i, (value, expected) in enumerate(zip(SWEEP_VALUES, FLAG_SWEEP[command, flag])):
            if expected == "-":
                continue
            arg = {"--scales": f"{value},1.0", "--prompt-sweep": f"{value}:{value}:{value}"}.get(flag, value)
            out = tmp_path / str(i)
            argv = [command, *sweep_inputs[command], f"{flag}={arg}"] + (["--out", str(out)] if command in WRITES_OUT else [])
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage exit
                code = exc.code
            captured = capsys.readouterr()
            case = f"{command} {flag}={arg}: {captured.err!r}"
            assert code == int(expected), case
            assert "Traceback" not in captured.err, case
            if code == 1:
                usage, sep, error = captured.err.partition("\nerror: ")
                assert usage.startswith(f"usage: evseen {command} ") and sep and error.count("\n") == 1, case
            elif code:
                assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), case
            else:
                assert captured.err == "" and captured.out.count("\n") == 1, case
                self.check_output(command, flag, value, out, captured.out, sweep_inputs)

    @staticmethod
    def check_output(command, flag, value, out, stdout, inputs):
        if command == "simulate":  # events sit on the frame times, in order
            stream = formats.read_events(out / "events.evt0")
            t0 = int(value) if flag == "--t0-us" else 0
            assert stdout == f"events={len(stream)}\n"
            assert np.all(np.diff(stream.ts) >= 0)
            assert set(stream.ts.tolist()) <= {t0 + k * 10_000 for k in range(1, SWEEP_FRAMES)}
        elif command == "voxelize":  # each pixel keeps its polarity sum, and its first moment over the bins
            stream = formats.read_events(inputs["voxelize"][1])
            grid = formats.read_evsf(out / "voxels.evsf")
            bins = grid.shape[2]
            t_start = int(value) if flag == "--t-start" else int(stream.ts[0])
            t_end = int(value) if flag == "--t-end" else int(stream.ts[-1])
            mass, moment = np.zeros(grid.shape[:2]), np.zeros(grid.shape[:2])
            for x, y, t, p in zip(stream.xs, stream.ys, stream.ts.tolist(), stream.ps):
                tau = min(max(Fraction(t - t_start, t_end - t_start) * (bins - 1), 0), bins - 1)
                mass[y, x] += p
                moment[y, x] += p * float(tau)
            assert abs(float(stdout.removeprefix("sum=")) - int(stream.ps.sum())) < 1e-9
            # the file holds float32 values; 1e-5 covers their rounding
            assert np.allclose(grid.sum(axis=2), mass, rtol=0, atol=1e-5)
            assert np.allclose(grid @ np.arange(bins), moment, rtol=0, atol=1e-5)
        elif command == "train-toy":
            assert np.all(np.isfinite(np.loadtxt(out / "losses.csv", delimiter=",", skiprows=1)))
