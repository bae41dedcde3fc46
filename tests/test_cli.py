"""Command-line surface: happy paths, error mapping, exit codes."""

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from blockmark import (
    CapacityExceededError,
    capacity_report,
    embed_two_domain,
    find_pp_zp,
    load_image,
    load_key_file,
    save_image,
    shift_histogram,
)
from blockmark import analysis, cli, histshift, pipeline
from blockmark.cli import main
from conftest import natural_image, synth_image


@pytest.fixture
def workdir(tmp_path, rng):
    img = synth_image(64, 64, rng, color=True)
    save_image(img, tmp_path / "in.ppm")
    cap = capacity_report(img)["total"]
    payload = rng.integers(0, 256, size=cap // 8, dtype=np.uint8).tobytes()
    (tmp_path / "p.bin").write_bytes(payload)
    assert main(["keygen", "--out", str(tmp_path / "keys.txt"), "--two-domain",
                 "--seed", "11"]) == 0
    return tmp_path


def _run(*argv) -> int:
    return main([str(a) for a in argv])


class TestEndToEnd:
    @pytest.mark.parametrize("mode", ["plain-first", "encrypted-first"])
    def test_embed_extract_decrypt(self, workdir, mode):
        rc = _run(
            "embed", "--mode", mode, "--block", "16",
            "--key", workdir / "keys.txt", "--payload", workdir / "p.bin",
            "--sideinfo", workdir / "out.etrd",
            workdir / "in.ppm", workdir / "out.ppm",
        )
        assert rc == 0
        assert (workdir / "out.ppm").exists()
        assert (workdir / "out.etrd").exists()

        rc = _run(
            "extract", "--sideinfo", workdir / "out.etrd",
            "--image-out", workdir / "etc.ppm",
            workdir / "out.ppm", workdir / "recovered.bin",
        )
        assert rc == 0
        recovered = (workdir / "recovered.bin").read_bytes()
        original = (workdir / "p.bin").read_bytes()
        assert recovered == original

        rc = _run(
            "decrypt", "--sideinfo", workdir / "out.etrd",
            "--key", workdir / "keys.txt",
            workdir / "etc.ppm", workdir / "final.ppm",
        )
        assert rc == 0
        assert (workdir / "final.ppm").read_bytes() == (workdir / "in.ppm").read_bytes()

    def test_two_domain_round_trip(self, workdir):
        (workdir / "pa.bin").write_bytes(b"\xa5\x0f")
        (workdir / "pb.bin").write_bytes(b"\x3c")
        rc = _run(
            "embed", "--mode", "two-domain", "--block", "16",
            "--key", workdir / "keys.txt",
            "--payload", workdir / "pa.bin", "--payload-b", workdir / "pb.bin",
            "--sideinfo", workdir / "td.etrd",
            workdir / "in.ppm", workdir / "td.ppm",
        )
        assert rc == 0
        rc = _run(
            "extract", "--sideinfo", workdir / "td.etrd",
            "--key", workdir / "keys.txt",
            "--payload-b-out", workdir / "rb.bin",
            "--image-out", workdir / "td_etc.ppm",
            workdir / "td.ppm", workdir / "ra.bin",
        )
        assert rc == 0
        assert (workdir / "ra.bin").read_bytes() == b"\xa5\x0f"
        assert (workdir / "rb.bin").read_bytes() == b"\x3c"
        rc = _run(
            "decrypt", "--sideinfo", workdir / "td.etrd",
            "--key", workdir / "keys.txt",
            workdir / "td_etc.ppm", workdir / "td_final.ppm",
        )
        assert rc == 0
        assert (workdir / "td_final.ppm").read_bytes() == (workdir / "in.ppm").read_bytes()

    def test_decrypt_then_extract_cli(self, workdir):
        _run(
            "embed", "--mode", "plain-first", "--key", workdir / "keys.txt",
            "--payload", workdir / "p.bin", "--sideinfo", workdir / "s.etrd",
            workdir / "in.ppm", workdir / "out.ppm",
        )
        _run(
            "decrypt", "--sideinfo", workdir / "s.etrd",
            "--key", workdir / "keys.txt",
            workdir / "out.ppm", workdir / "marked.ppm",
        )
        rc = _run(
            "extract", "--sideinfo", workdir / "s.etrd",
            "--image-out", workdir / "restored.ppm",
            workdir / "marked.ppm", workdir / "rec.bin",
        )
        assert rc == 0
        assert (workdir / "rec.bin").read_bytes() == (workdir / "p.bin").read_bytes()
        assert (
            (workdir / "restored.ppm").read_bytes()
            == (workdir / "in.ppm").read_bytes()
        )


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, workdir):
        for suffix in ("1", "2"):
            rc = _run(
                "embed", "--mode", "plain-first", "--block", "16",
                "--key", workdir / "keys.txt", "--payload", workdir / "p.bin",
                "--sideinfo", workdir / f"s{suffix}.etrd",
                workdir / "in.ppm", workdir / f"o{suffix}.ppm",
            )
            assert rc == 0
        assert (workdir / "o1.ppm").read_bytes() == (workdir / "o2.ppm").read_bytes()
        assert (workdir / "s1.etrd").read_bytes() == (workdir / "s2.etrd").read_bytes()


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["embed", "--mode", "nonsense"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand_is_1(self):
        assert main([]) == 1

    def test_capacity_exceeded_is_2(self, workdir, capsys):
        big = capacity_report(load_image(workdir / "in.ppm"))["total"] // 8 + 100
        (workdir / "big.bin").write_bytes(bytes(big))
        rc = _run(
            "embed", "--mode", "plain-first", "--key", workdir / "keys.txt",
            "--payload", workdir / "big.bin", "--sideinfo", workdir / "s.etrd",
            workdir / "in.ppm", workdir / "out.ppm",
        )
        assert rc == 2
        assert "CapacityExceeded" in capsys.readouterr().err

    def test_missing_file_is_2(self, workdir, capsys):
        rc = _run(
            "embed", "--mode", "plain-first", "--key", workdir / "keys.txt",
            "--payload", workdir / "nope.bin", "--sideinfo", workdir / "s.etrd",
            workdir / "in.ppm", workdir / "out.ppm",
        )
        assert rc == 2
        assert capsys.readouterr().err

    def test_codec_failure_is_3(self, workdir, capsys):
        cfg = workdir / "codecs.json"
        cfg.write_text(json.dumps(
            [{"name": "boom", "encode": f"{sys.executable} -c \"raise SystemExit(2)\""}]
        ))
        rc = _run("compress-eval", "--codecs", cfg, workdir / "in.ppm")
        assert rc == 3
        assert "boom" in capsys.readouterr().err

    def test_codec_without_command_is_3(self, workdir, capsys, monkeypatch):
        # A null template must not make shlex read a command from stdin.
        monkeypatch.setattr("sys.stdin", io.StringIO("true"))
        cfg = workdir / "codecs.json"
        cfg.write_text('[{"name": "x", "encode": null}]')
        rc = _run("compress-eval", "--codecs", cfg, workdir / "in.ppm")
        assert rc == 3
        assert "CodecError" in capsys.readouterr().err

    def test_payload_b_in_single_domain_is_2(self, workdir, capsys):
        rc = _run(
            "embed", "--mode", "plain-first", "--block", "16",
            "--key", workdir / "keys.txt", "--payload", workdir / "p.bin",
            "--payload-b", workdir / "p.bin", "--sideinfo", workdir / "out.etrd",
            workdir / "in.ppm", workdir / "out.ppm",
        )
        assert rc == 2
        assert "--payload-b" in capsys.readouterr().err
        assert not (workdir / "out.ppm").exists()

    def test_payload_b_out_on_single_domain_is_2(self, workdir, capsys):
        rc = _run(
            "embed", "--mode", "encrypted-first", "--block", "16",
            "--key", workdir / "keys.txt", "--payload", workdir / "p.bin",
            "--sideinfo", workdir / "out.etrd", workdir / "in.ppm", workdir / "out.ppm",
        )
        assert rc == 0
        rc = _run(
            "extract", "--sideinfo", workdir / "out.etrd",
            "--payload-b-out", workdir / "b.bin",
            workdir / "out.ppm", workdir / "a.bin",
        )
        assert rc == 2
        assert "--payload-b-out" in capsys.readouterr().err
        assert not (workdir / "b.bin").exists()

    def test_key_on_single_domain_is_2(self, workdir, capsys):
        rc = _run(
            "embed", "--mode", "plain-first", "--block", "16",
            "--key", workdir / "keys.txt", "--payload", workdir / "p.bin",
            "--sideinfo", workdir / "out.etrd", workdir / "in.ppm", workdir / "out.ppm",
        )
        assert rc == 0
        rc = _run(
            "extract", "--sideinfo", workdir / "out.etrd", "--key", workdir / "keys.txt",
            workdir / "out.ppm", workdir / "a.bin",
        )
        assert rc == 2
        assert "--key is only valid for two-domain side info" in capsys.readouterr().err
        assert not (workdir / "a.bin").exists()

    _NO_REGION_KEY = "SideInfoError: two-domain mode requires a region key"

    @pytest.mark.parametrize(
        "argv, names, outputs",
        [
            ("embed --mode two-domain --key keys.txt --payload pa.bin"
             " --sideinfo s.etrd in.ppm out.ppm", "--payload-b", ["out.ppm", "s.etrd"]),
            ("extract --sideinfo td.etrd --payload-b-out b.bin td.ppm a.bin",
             "--key", ["a.bin", "b.bin"]),
            ("extract --sideinfo td.etrd --key keys.txt td.ppm a.bin",
             "--payload-b-out", ["a.bin"]),
            ("embed --mode two-domain --key two.txt --payload pa.bin --payload-b pb.bin"
             " --sideinfo s.etrd in.ppm out.ppm", _NO_REGION_KEY, ["out.ppm", "s.etrd"]),
            ("extract --sideinfo td.etrd --key two.txt --payload-b-out b.bin td.ppm a.bin",
             _NO_REGION_KEY, ["a.bin", "b.bin"]),
            ("analyze capacity --key two.txt --json cap.json in.ppm",
             _NO_REGION_KEY, ["cap.json"]),
        ],
        ids=[
            "embed-without-payload-b",
            "extract-without-key",
            "extract-without-payload-b-out",
            "embed-two-key-file",
            "extract-two-key-file",
            "capacity-two-key-file",
        ],
    )
    def test_two_domain_refusal_is_2(self, workdir, monkeypatch, capsys, argv, names, outputs):
        # One rule for every two-domain option and one for the region key.
        monkeypatch.chdir(workdir)
        Path("pa.bin").write_bytes(b"\xa5\x0f")
        Path("pb.bin").write_bytes(b"\x3c")
        assert _run("keygen", "--out", "two.txt", "--seed", "11") == 0
        assert _run(
            "embed", "--mode", "two-domain", "--key", "keys.txt", "--payload", "pa.bin",
            "--payload-b", "pb.bin", "--sideinfo", "td.etrd", "in.ppm", "td.ppm",
        ) == 0
        capsys.readouterr()
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert names in captured.err
        assert not captured.out
        assert not any(Path(name).exists() for name in outputs)

    def test_geometry_error_is_2(self, workdir, rng, capsys):
        save_image(synth_image(30, 30, rng, color=False), workdir / "odd.pgm")
        rc = _run(
            "embed", "--mode", "plain-first", "--key", workdir / "keys.txt",
            "--payload", workdir / "p.bin", "--sideinfo", workdir / "s.etrd",
            workdir / "odd.pgm", workdir / "out.pgm",
        )
        assert rc == 2
        assert "Geometry" in capsys.readouterr().err


class TestKeygen:
    def test_seeded_keygen_is_deterministic(self, tmp_path):
        main(["keygen", "--out", str(tmp_path / "a.txt"), "--seed", "3"])
        main(["keygen", "--out", str(tmp_path / "b.txt"), "--seed", "3"])
        assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()

    def test_unseeded_keys_differ(self, tmp_path):
        main(["keygen", "--out", str(tmp_path / "a.txt")])
        main(["keygen", "--out", str(tmp_path / "b.txt")])
        assert (tmp_path / "a.txt").read_text() != (tmp_path / "b.txt").read_text()

    def test_seed_outside_int64_is_2(self, tmp_path, capsys):
        rc = _run("keygen", "--out", tmp_path / "k.txt", "--seed", 10**20)
        assert rc == 2
        assert "error: KeyFormatError" in capsys.readouterr().err
        assert not (tmp_path / "k.txt").exists()

    def test_two_lines_without_region(self, tmp_path):
        main(["keygen", "--out", str(tmp_path / "k.txt")])
        assert len((tmp_path / "k.txt").read_text().strip().splitlines()) == 2


class TestAnalyze:
    def test_psnr_output(self, workdir, capsys):
        rc = _run("analyze", "psnr", workdir / "in.ppm", workdir / "in.ppm")
        assert rc == 0
        assert "psnr_db=inf" in capsys.readouterr().out

    def test_capacity_output(self, workdir, capsys):
        rc = _run("analyze", "capacity", workdir / "in.ppm")
        assert rc == 0
        out = capsys.readouterr().out
        report = capacity_report(load_image(workdir / "in.ppm"))
        assert f"total={report['total']}" in out
        assert f"plane0={report['per_plane'][0]}" in out

    def test_capacity_regions(self, workdir, monkeypatch, capsys):
        shifts, searches = [], []

        def counting_shift(plane, pair):
            shifts.append(pair)
            shift_histogram(plane, pair)

        def counting_search(plane):
            searches.append(plane)
            return find_pp_zp(plane)

        # Region capacities count pp-valued pixels of the unshifted planes.
        assert not hasattr(cli, "shift_histogram")
        for module in (cli, pipeline, histshift):
            monkeypatch.setattr(module, "shift_histogram", counting_shift, raising=False)
        monkeypatch.setattr(analysis, "find_pp_zp", counting_search)
        # The CLI need not import the pair search at all.
        monkeypatch.setattr(cli, "find_pp_zp", counting_search, raising=False)
        rc = _run(
            "analyze", "capacity", workdir / "in.ppm",
            "--block", "16", "--key", workdir / "keys.txt",
        )
        assert rc == 0
        assert len(shifts) == 0
        assert len(searches) == 3  # one per RGB plane, in capacity_report
        out = capsys.readouterr().out
        lines = dict(ln.split("=") for ln in out.strip().splitlines())
        total = int(lines["total"])
        region_a, region_b = int(lines["region_a"]), int(lines["region_b"])
        assert region_a + region_b == total
        # Both figures are exact: each region takes that many bits and no more.
        image, keys = load_image(workdir / "in.ppm"), load_key_file(workdir / "keys.txt")
        embed_two_domain(image, np.ones(region_a), np.ones(region_b), keys, 16)
        with pytest.raises(CapacityExceededError, match="region A"):
            embed_two_domain(image, np.ones(region_a + 1), [], keys, 16)
        with pytest.raises(CapacityExceededError, match="region B"):
            embed_two_domain(image, [], np.ones(region_b + 1), keys, 16)

    def test_correlation_with_subsample_and_json(self, tmp_path, capsys):
        save_image(natural_image(128, 128, seed=4), tmp_path / "nat.pgm")
        rc = _run(
            "analyze", "correlation", tmp_path / "nat.pgm",
            "--pairs", "200", "--seed", "0", "--subsample", "8",
            "--json", tmp_path / "corr.json",
        )
        assert rc == 0
        data = json.loads((tmp_path / "corr.json").read_text())
        assert set(data) == {"horizontal", "vertical", "diagonal", "pairs"}
        assert "horizontal=" in capsys.readouterr().out

    @pytest.mark.parametrize("subsample", ["0", "-8"])
    def test_correlation_rejects_non_positive_subsample(self, tmp_path, capsys, subsample):
        # 0 is a block size like any other, not "no subsampling".
        save_image(natural_image(64, 64, seed=4), tmp_path / "nat.pgm")
        rc = _run(
            "analyze", "correlation", tmp_path / "nat.pgm",
            "--pairs", "200", "--subsample", subsample,
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "GeometryError" in captured.err
        assert "horizontal=" not in captured.out

    def test_compress_eval_output(self, workdir, capsys):
        cfg = workdir / "codecs.json"
        cfg.write_text('[{"name": "copy", "encode": "cp {in} {out}"}]')
        rc = _run("compress-eval", "--codecs", cfg, workdir / "in.ppm")
        assert rc == 0
        assert "in.ppm.copy.ratio=1.0" in capsys.readouterr().out
