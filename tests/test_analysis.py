"""Metrics and the external-codec harness."""

import io
import math
import sys
import tracemalloc

import numpy as np
import pytest

from blockmark import (
    CodecError,
    CodecSpec,
    DegenerateSampleError,
    GeometryError,
    Image,
    LossyCodecError,
    NoZeroPointError,
    capacity_report,
    compression_eval,
    correlation,
    correlation_report,
    load_codec_config,
    psnr,
    resize_topleft,
    save_image,
)
from blockmark.analysis import mse
from conftest import natural_image, synth_image

ZLIB_ENCODE = (
    f"{sys.executable} -c "
    '"import sys,zlib;'
    "open(sys.argv[2],'wb').write(zlib.compress(open(sys.argv[1],'rb').read()))\" "
    "{in} {out}"
)
ZLIB_DECODE = (
    f"{sys.executable} -c "
    '"import sys,zlib;'
    "open(sys.argv[2],'wb').write(zlib.decompress(open(sys.argv[1],'rb').read()))\" "
    "{in} {out}"
)
TRUNCATING_DECODE = (
    f"{sys.executable} -c "
    '"import sys,zlib;'
    "open(sys.argv[2],'wb').write(zlib.decompress(open(sys.argv[1],'rb').read())[:-1])\" "
    "{in} {out}"
)

NO_OUTPUT = f"{sys.executable} -c pass"
EMPTY_OUTPUT = f"{sys.executable} -c \"import sys; open(sys.argv[1], 'wb')\" {{out}}"


class TestPsnr:
    def test_identical_images_give_inf(self, rng):
        img = synth_image(32, 32, rng, color=True)
        assert psnr(img, img) == math.inf

    def test_plus_one_everywhere(self, rng):
        img = synth_image(32, 32, rng, color=False)
        shifted = Image((img.planes[0] + 1,))
        assert psnr(img, shifted) == pytest.approx(10 * math.log10(255**2))
        assert mse(img, shifted) == 1.0

    def test_dimension_mismatch(self, rng):
        a = synth_image(32, 32, rng, color=False)
        b = synth_image(16, 16, rng, color=False)
        with pytest.raises(GeometryError):
            psnr(a, b)

    @pytest.mark.parametrize("color", [False, True])
    @pytest.mark.parametrize("equal", [False, True])
    def test_matches_float64_mean(self, rng, color, equal):
        # The float64 mean of squared differences, which is exact while the
        # sum of squares stays below 2**53.
        a = synth_image(64, 48, rng, color=color)
        b = a if equal else Image(tuple(rng.integers(0, 256, p.shape, np.uint8) for p in a.planes))
        diff = np.concatenate(
            [(pa.astype(np.float64) - pb.astype(np.float64)).ravel()
             for pa, pb in zip(a.planes, b.planes)]
        )
        want = float(np.mean(diff**2))
        assert mse(a, b) == want
        assert psnr(a, b) == (math.inf if equal else 10.0 * math.log10(255.0**2 / want))

    def test_traced_peak_under_twice_the_image(self, rng):
        a = Image(tuple(rng.integers(0, 256, (512, 512), np.uint8) for _ in range(3)))
        b = Image(tuple(rng.integers(0, 256, (512, 512), np.uint8) for _ in range(3)))
        tracemalloc.start()
        try:
            psnr(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 3 * 512 * 512

    def test_color_averages_all_planes(self, rng):
        base = synth_image(16, 16, rng, color=True)
        planes = list(p.copy() for p in base.planes)
        planes[0] = planes[0] ^ 1  # toggle one plane only
        assert mse(base, Image(tuple(planes))) == pytest.approx(1 / 3)


class TestResize:
    def test_large_landscape_dimensions(self):
        img = Image((np.zeros((2048, 3072), np.uint8),))
        out = resize_topleft(img, 16)
        assert (out.height, out.width) == (128, 192)

    def test_single_block(self, rng):
        img = synth_image(16, 16, rng, color=False)
        out = resize_topleft(img, 16)
        assert out.planes[0].shape == (1, 1)
        assert out.planes[0][0, 0] == img.planes[0][0, 0]

    def test_constant_image(self):
        img = Image((np.full((32, 32), 9, np.uint8),))
        assert np.all(resize_topleft(img, 8).planes[0] == 9)

    def test_picks_topleft_samples(self, rng):
        img = synth_image(32, 32, rng, color=True)
        out = resize_topleft(img, 8)
        for src, dst in zip(img.planes, out.planes):
            assert np.array_equal(dst, src[::8, ::8])

    def test_geometry_checked(self, rng):
        with pytest.raises(GeometryError):
            resize_topleft(synth_image(30, 30, rng, color=False), 16)


class TestCorrelation:
    def test_perfect_horizontal_correlation(self):
        plane = np.repeat(np.arange(64, dtype=np.uint8)[:, None], 64, axis=1)
        assert correlation(plane, "horizontal", pairs=500) == pytest.approx(1.0)

    def test_constant_image_degenerate(self):
        plane = np.full((64, 64), 7, np.uint8)
        with pytest.raises(DegenerateSampleError):
            correlation(plane, "horizontal", pairs=100)

    def test_matches_corrcoef(self, rng):
        # Moment divisors cancel, so np.corrcoef is an independent oracle.
        plane = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        dr, dc = 1, 1
        sampler = np.random.default_rng(5)
        anchors = sampler.choice(63 * 63, size=1000, replace=False)
        rows, cols = anchors // 63, anchors % 63
        x = plane[rows, cols].astype(float)
        y = plane[rows + dr, cols + dc].astype(float)
        expected = np.corrcoef(x, y)[0, 1]
        got = correlation(plane, "diagonal", pairs=1000, seed=5)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_seed_determinism(self, rng):
        plane = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        a = correlation(plane, "vertical", pairs=500, seed=3)
        b = correlation(plane, "vertical", pairs=500, seed=3)
        c = correlation(plane, "vertical", pairs=500, seed=4)
        assert a == b
        assert a != c

    def test_too_many_pairs(self):
        with pytest.raises(ValueError):
            correlation(np.zeros((4, 4), np.uint8), "horizontal", pairs=100)

    @pytest.mark.parametrize("pairs", [0, -5])
    def test_non_positive_pairs(self, pairs):
        with pytest.raises(ValueError, match="positive"):
            correlation(np.zeros((4, 4), np.uint8), "horizontal", pairs=pairs)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            correlation(np.zeros((8, 8), np.uint8), "sideways", pairs=4)

    def test_report_covers_three_directions(self):
        plane = natural_image(128, 128, seed=1).planes[0]
        report = correlation_report(plane, pairs=800, seed=0)
        assert report.pairs == 800
        for value in (report.horizontal, report.vertical, report.diagonal):
            assert -1.0 <= value <= 1.0
        assert report.horizontal > 0.5  # natural content is correlated


class TestCapacityReport:
    def test_total_is_plane_sum(self, rng):
        img = synth_image(64, 64, rng, color=True)
        report = capacity_report(img)
        assert report["total"] == sum(report["per_plane"])
        assert len(report["per_plane"]) == 3

    def test_block_size_independent(self, rng):
        img = synth_image(192, 192, rng, color=True)
        totals = {capacity_report(img, b)["total"] for b in (16, 32, 64)}
        assert len(totals) == 1

    def test_small_distinct_plane(self):
        img = Image((np.arange(25, dtype=np.uint8).reshape(5, 5),))
        assert capacity_report(img)["total"] == 1

    def test_full_histogram_propagates(self):
        img = Image((np.arange(256, dtype=np.uint8).reshape(16, 16),))
        with pytest.raises(NoZeroPointError):
            capacity_report(img)


class TestCompressionHarness:
    @pytest.fixture
    def image_file(self, tmp_path, rng):
        path = tmp_path / "img.pgm"
        save_image(synth_image(64, 64, rng, color=False), path)
        return path

    def test_identity_codec_ratio_one(self, image_file):
        spec = CodecSpec(name="copy", encode="cp {in} {out}")
        result = compression_eval(image_file, spec)
        assert result.ratio == 1.0
        assert result.original_bytes == result.compressed_bytes

    def test_constant_image_compresses_well(self, tmp_path):
        path = tmp_path / "const.pgm"
        save_image(Image((np.full((256, 256), 50, np.uint8),)), path)
        spec = CodecSpec(name="zlib", encode=ZLIB_ENCODE, decode=ZLIB_DECODE)
        assert compression_eval(path, spec).ratio > 20

    def test_lossless_round_trip_verified(self, image_file):
        spec = CodecSpec(name="zlib", encode=ZLIB_ENCODE, decode=ZLIB_DECODE)
        result = compression_eval(image_file, spec)
        assert result.ratio > 0

    def test_lossy_codec_detected(self, image_file):
        spec = CodecSpec(name="bad", encode=ZLIB_ENCODE, decode=TRUNCATING_DECODE)
        with pytest.raises(LossyCodecError):
            compression_eval(image_file, spec)

    def test_failing_codec(self, image_file):
        spec = CodecSpec(name="boom", encode=f"{sys.executable} -c \"raise SystemExit(9)\"")
        with pytest.raises(CodecError, match="exited 9"):
            compression_eval(image_file, spec)

    @pytest.mark.parametrize(
        "encode, decode, message",
        [
            (NO_OUTPUT, None, "bad produced no output file"),
            (ZLIB_ENCODE, NO_OUTPUT, "bad decoder produced no output file"),
            (EMPTY_OUTPUT, None, "bad produced an empty file"),
        ],
        ids=["encoder", "decoder", "empty"],
    )
    def test_missing_or_empty_output(self, image_file, encode, decode, message):
        spec = CodecSpec(name="bad", encode=encode, decode=decode)
        with pytest.raises(CodecError, match=message):
            compression_eval(image_file, spec)

    def test_missing_binary(self, image_file):
        spec = CodecSpec(name="ghost", encode="no-such-binary-anywhere {in} {out}")
        with pytest.raises(CodecError, match="cannot run"):
            compression_eval(image_file, spec)

    def test_config_loading(self, tmp_path):
        cfg = tmp_path / "codecs.json"
        cfg.write_text(
            '[{"name": "copy", "encode": "cp {in} {out}"},'
            ' {"name": "z", "encode": "e", "decode": "d"}]'
        )
        specs = load_codec_config(cfg)
        assert [s.name for s in specs] == ["copy", "z"]
        assert specs[0].decode is None
        assert specs[1].decode == "d"

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "codecs.json"
        cfg.write_text('[{"encode": "cp {in} {out}"}]')
        with pytest.raises(CodecError):
            load_codec_config(cfg)

    @pytest.mark.parametrize(
        "text",
        [
            '[{"name": "", "encode": "cp {in} {out}"}]',
            '[{"name": 7, "encode": "cp {in} {out}"}]',
            '[{"name": "x"}]',
            '[{"name": "x", "encode": null}]',
            '[{"name": "x", "encode": ""}]',
            '[{"name": "x", "encode": "   "}]',
            '[{"name": "x", "encode": ["cp"]}]',
            '[{"name": "x", "encode": "cp \\"{in}"}]',
            '[{"name": "x", "encode": "cp {in} {where}"}]',
            '[{"name": "x", "encode": "cp {in} {out"}]',
            '[{"name": "x", "encode": "cp {in[x]} {out}"}]',
            '[{"name": "x", "encode": "cp {in.x} {out}"}]',
            '[{"name": "x", "encode": "cp {in} {out}", "decode": null}]',
            '[{"name": "x", "encode": "cp {in} {out}", "decode": 3}]',
            '["cp {in} {out}"]',
            '{"name": "x", "encode": "cp {in} {out}"}',
            '[{"name": "x", "encode": "cp {in} {out}"}',
            "",
        ],
    )
    def test_malformed_config(self, tmp_path, text):
        cfg = tmp_path / "codecs.json"
        cfg.write_text(text)
        with pytest.raises(CodecError):
            load_codec_config(cfg)

    def test_non_utf8_config(self, tmp_path):
        cfg = tmp_path / "codecs.json"
        cfg.write_bytes(b'[{"name": "\xff", "encode": "cp {in} {out}"}]')
        with pytest.raises(CodecError, match="UTF-8"):
            load_codec_config(cfg)

    def test_missing_template_never_reads_stdin(self, image_file, monkeypatch):
        # shlex.split(None) would read the command from standard input.
        monkeypatch.setattr("sys.stdin", io.StringIO("true"))
        with pytest.raises(CodecError, match="must hold a command"):
            compression_eval(image_file, CodecSpec(name="x", encode=None))
