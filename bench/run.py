#!/usr/bin/env python3
"""Closed-loop round-trip benchmark for blockmark.

One process, no threads, one round trip at a time. A round trip is:
decode the input bytes -> embed -> encode the image and the side info ->
decode both -> extract and decrypt in the workload's order -> encode. It
fails unless the payload and the image come back byte-exact. Only calls
into blockmark's public API are timed.

    python3 bench/run.py --workload smooth-gray-b4 --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced round
trips with round trips whose calls into each layer are wrapped (spans.py)
and prints per-layer metrics. The last stdout line is the JSON result; the
two lines before it record the environment and the sample counts and
quartiles behind each median.

Round trips of the workload at GOLDEN_SEED must reproduce the SHA-256
digests of ciphertext, side info and payload pinned in golden.json, so a
change that alters ciphertext fails rather than reading as a speed-up. Every
run checks them at toy size in its warm-up; untraced runs also check them at
full size, in the fresh interpreter that measures peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS, Tracer, layer_shares  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS, make_inputs  # noqa: E402

TOY_SCALE = 8  # --toy divides every image side by this
SETUP_RUNS = 7
PSNR_FLOOR_DB = 48.13
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "embed_s": "s",
    "extract_s": "s",
    "decrypt_s": "s",
    "roundtrip_mpix_s": "Msamples/s",
    "peak_mem_x": "x",
    "setup_s": "s",
    "capacity_bits": "bits",
    "marked_psnr_db": "dB",
}
PER_LAYER_UNITS = {m: unit for m, (_n, _k, unit) in LAYER_METRICS.items()}
PER_LAYER_UNITS.update(
    {
        "pipeline.self_s": "s",
        "cipher.static_block_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    }
)

# What every CLI call pays before it works: import, load keys, decode input.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import blockmark
blockmark.load_key_file(sys.argv[2], per_plane=sys.argv[3] == "1")
blockmark.load_image(sys.argv[4])
print(time.perf_counter() - t0)
"""

# The golden round trip, in a fresh interpreter: prints whether it was
# byte-exact, its digests, and the growth of peak resident memory over it. A
# fresh process keeps earlier high-water marks (input generation, other round
# trips) out of the figure.
MEMORY_CODE = """
import json, pickle, sys
sys.path.insert(0, sys.argv[1])
import run
bm = run.load_blockmark()
with open(sys.argv[3], "rb") as fh:
    inp = pickle.load(fh)
before = run.memory_status()["VmRSS"]
rt = run.round_trip(bm, run.WORKLOADS[sys.argv[2]], inp)
peak = run.memory_status()["VmHWM"] - before
print(json.dumps({"ok": rt.ok, "digests": rt.digests, "peak": peak}))
"""


def load_blockmark():
    """Import blockmark from this checkout's sources and nowhere else."""
    if not (SRC / "blockmark" / "__init__.py").is_file():
        sys.exit(f"run.py: blockmark sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockmark
    import blockmark.image_io
    import blockmark.pipeline

    return blockmark


def memory_status() -> dict[str, int]:
    """Current and peak resident set size of this process, in bytes."""
    out = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                out[key] = int(value.split()[0]) * 1024
    return out


@dataclass
class RoundTrip:
    ok: bool
    embed_s: float
    extract_s: float
    decrypt_s: float
    api_s: float  # every API call of the round trip
    digests: dict
    cipher: object  # blockmark.Image as received
    side: object  # blockmark.SideInfo as received
    marked: object  # decrypt-only image, when the receiver decrypted first


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def round_trip(bm, w, inp) -> RoundTrip:
    P, IO = bm.pipeline, bm.image_io
    keys = inp.keys

    def extract(image):
        if w.mode == "two-domain":
            a, b, rest = P.extract_two_domain(image, side, keys.k_region)
            return (a, b), rest
        bits, rest = P.extract_payload(image, side)
        return (bits,), rest

    t0 = time.perf_counter()
    image = IO.decode_image(inp.image_bytes)
    t1 = time.perf_counter()
    if w.mode == "plain-first":
        sent, side = P.embed_plain_then_encrypt(image, inp.payloads[0], keys, w.block)
    elif w.mode == "encrypted-first":
        sent, side = P.encrypt_then_embed(image, inp.payloads[0], keys, w.block)
    else:
        sent, side = P.embed_two_domain(image, *inp.payloads, keys, w.block)
    t2 = time.perf_counter()
    cipher_bytes = IO.encode_image(sent)
    side_bytes = side.to_bytes()
    received = IO.decode_image(cipher_bytes)
    side = P.SideInfo.from_bytes(side_bytes)
    t3 = time.perf_counter()
    marked = None
    if w.extract_first:
        bits, plain = extract(received)
        t4 = time.perf_counter()
        restored = P.decrypt(plain, side, keys)
        t5 = time.perf_counter()
        extract_s, decrypt_s = t4 - t3, t5 - t4
    else:
        marked = P.decrypt(received, side, keys)
        t4 = time.perf_counter()
        bits, restored = extract(marked)
        t5 = time.perf_counter()
        decrypt_s, extract_s = t4 - t3, t5 - t4
    out_bytes = IO.encode_image(restored)
    t6 = time.perf_counter()

    ok = out_bytes == inp.image_bytes and all(
        np.array_equal(got, want) for got, want in zip(bits, inp.payloads)
    )
    digests = {
        "ciphertext": _sha(cipher_bytes),
        "sideinfo": _sha(side_bytes),
        "payload": _sha(b"".join(np.asarray(b, np.uint8).tobytes() for b in bits)),
    }
    return RoundTrip(ok, t2 - t1, extract_s, decrypt_s, t6 - t0, digests, received, side, marked)


class Runner:
    """Runs round trips and keeps the attempted/failed tally."""

    def __init__(self, bm, w):
        self.bm, self.w = bm, w
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, inp, expect_digests=None) -> RoundTrip | None:
        self.attempted += 1
        try:
            rt = round_trip(self.bm, self.w, inp)
        except Exception:
            self.fail(traceback.format_exc())
            return None
        return rt if self.verify(rt.ok, rt.digests, expect_digests) else None

    def verify(self, ok: bool, digests: dict, expect_digests=None) -> bool:
        if not ok:
            self.fail("round trip was not byte-exact")
        elif expect_digests is not None and digests != expect_digests:
            self.fail(f"golden digests differ: got {digests}, pinned {expect_digests}")
        else:
            return True
        return False

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def golden_digests(w, side: int) -> dict:
    pinned = json.loads((HERE / "golden.json").read_text())
    entry = pinned.get(w.name, {}).get(str(side))
    if entry is None:
        sys.exit(f"run.py: golden.json has no digests for {w.name} at {side}px")
    return entry


def static_block_ratio(cipher, marked, block: int) -> float:
    """Share of (plane, block) positions where the ciphertext block equals
    the decrypted block: blocks the cipher left where and as they were."""
    same = total = 0
    for c, m in zip(cipher.planes, marked.planes):
        h, w = c.shape
        eq = (c == m).reshape(h // block, block, w // block, block).all(axis=(1, 3))
        same += int(eq.sum())
        total += eq.size
    return same / total


def decrypt_only(runner, inp, rt):
    """The decrypt-only (marked plain) image of a round trip's ciphertext."""
    if rt.marked is not None:
        return rt.marked
    try:
        return runner.bm.pipeline.decrypt(rt.cipher, rt.side, inp.keys)
    except Exception:
        runner.fail(traceback.format_exc())
        return None


def _child(code: str, *args) -> str:
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, *map(str, args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


@contextlib.contextmanager
def child_inputs(runner, inp, scale: int, tag: str):
    """The input image and key file for set-up children, and the pickled
    full-size golden input for the memory child; removed on exit."""
    WORK.mkdir(exist_ok=True)
    paths = [WORK / f"{tag}{ext}" for ext in (".pnm", ".keys", ".pkl")]
    try:
        paths[0].write_bytes(inp.image_bytes)
        runner.bm.save_key_file(inp.keys, paths[1])
        with open(paths[2], "wb") as fh:
            pickle.dump(make_inputs(runner.bm, runner.w, GOLDEN_SEED, scale), fh)
        yield paths
    finally:
        for path in paths:
            path.unlink(missing_ok=True)


def golden_peak_memory(runner, golden_path: Path, scale: int) -> int:
    """Round-trips the full-size golden input in a fresh interpreter, checks
    its digests and returns its peak resident memory growth (0 on failure)."""
    w = runner.w
    runner.attempted += 1
    try:
        out = json.loads(_child(MEMORY_CODE, HERE, w.name, golden_path))
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        runner.fail(f"golden round trip failed: {exc} {getattr(exc, 'stderr', '')}")
        return 0
    golden = golden_digests(w, w.side // scale)
    return out["peak"] if runner.verify(out["ok"], out["digests"], golden) else 0


def timed_loop(runner, inp, seconds, context=None):
    """Closed loop until the deadline; yields (index, round trip) for each
    successful round trip. `context(i)` may wrap round trip i."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        gc.collect()
        with context(i) if context else contextlib.nullcontext():
            rt = runner.run(inp)
        if rt is not None:
            yield i, rt
        i += 1
        if time.perf_counter() >= deadline:
            return


def summary(values) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": median(values) if values else None}
    if len(values) >= 2:
        q1, _, q3 = quantiles(values, n=4)
        out.update(p25=q1, p75=q3, min=values[0], max=values[-1])
    return out


def end_to_end(runner, inp, scale, seconds, detail) -> dict:
    w, bm = runner.w, runner.bm
    tag = f"{w.name}-{detail['seed']}-{os.getpid()}"
    samples = {"embed_s": [], "extract_s": [], "decrypt_s": [], "roundtrip_mpix_s": []}
    setup = []
    last = None
    with child_inputs(runner, inp, scale, tag) as (image_path, key_path, golden_path):
        peak = golden_peak_memory(runner, golden_path, scale)

        def set_up():
            setup.append(float(_child(SETUP_CODE, SRC, key_path, int(w.per_plane), image_path)))

        start = time.perf_counter()
        for _, rt in timed_loop(runner, inp, seconds):
            samples["embed_s"].append(rt.embed_s)
            samples["extract_s"].append(rt.extract_s)
            samples["decrypt_s"].append(rt.decrypt_s)
            samples["roundtrip_mpix_s"].append(inp.samples / rt.api_s / 1e6)
            last = rt
            # Set-up samples are spread evenly over the run so that, like the
            # round trips, they see the machine's changing speed.
            if len(setup) < SETUP_RUNS and (
                time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS
            ):
                set_up()
        while len(setup) < SETUP_RUNS:
            set_up()

    metrics = {name: median(v) if v else 0.0 for name, v in samples.items()}
    metrics["peak_mem_x"] = peak / inp.samples
    metrics["setup_s"] = median(setup)
    metrics["capacity_bits"] = inp.capacity_bits
    metrics["marked_psnr_db"] = 0.0
    marked = decrypt_only(runner, inp, last) if last else None
    if marked is not None:
        metrics["marked_psnr_db"] = bm.psnr(bm.decode_image(inp.image_bytes), marked)
        if metrics["marked_psnr_db"] < PSNR_FLOOR_DB:
            runner.fail(f"marked PSNR {metrics['marked_psnr_db']:.3f} dB is under the floor")
        detail["static_block_ratio"] = static_block_ratio(last.cipher, marked, w.block)
    detail["samples"] = {name: summary(v) for name, v in samples.items()}
    detail["samples"]["setup_s"] = summary(setup)
    return metrics


def per_layer(runner, inp, seconds, detail) -> dict:
    w = runner.w
    tracer = Tracer(runner.bm)
    untraced, traced, traced_ids = [], [], []
    last = None

    def context(i):
        tracer.round_trip = i
        # Odd round trips are traced; alternating keeps both halves under
        # the same machine load for the overhead ratio.
        return tracer.patched() if i % 2 else contextlib.nullcontext()

    for i, rt in timed_loop(runner, inp, seconds, context):
        last = rt
        if i % 2:
            traced.append(rt.api_s)
            traced_ids.append(i)
        else:
            untraced.append(rt.api_s)
    if not traced:
        with context(1):
            rt = runner.run(inp)
        if rt is not None:
            last = rt
            traced.append(rt.api_s)
            traced_ids.append(1)

    per = tracer.per_round_trip(traced_ids)
    metrics = {
        name: median(values) if values and not tracer.is_absent(name) else 0.0
        for name, values in per.items()
    }
    metrics["cipher.static_block_ratio"] = 0.0
    marked = decrypt_only(runner, inp, last) if last else None
    if marked is not None:
        metrics["cipher.static_block_ratio"] = static_block_ratio(last.cipher, marked, w.block)
    metrics["trace.overhead_ratio"] = (
        median(traced) / median(untraced) if traced and untraced else 0.0
    )

    detail["absent"] = sorted(tracer.absent)
    detail["uncounted"] = sorted(tracer.uncounted)
    detail["samples"] = {"untraced": summary(untraced), "traced": summary(traced)}
    if traced:
        detail["layer_shares"] = layer_shares(per, median(traced))
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{w.name}-{detail['seed']}.jsonl"
    tracer.write(spans_path)
    detail["spans"] = str(spans_path.relative_to(ROOT))
    return metrics


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            sha = res.stdout.strip() if res.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "blockmark").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help=f"divide image sides by {TOY_SCALE} (self-test)"
    )
    args = parser.parse_args(argv)

    bm = load_blockmark()
    env = environment()
    w = WORKLOADS[args.workload]
    scale = TOY_SCALE if args.toy else 1
    runner = Runner(bm, w)
    detail = {"workload": w.name, "seed": args.seed, "side": w.side // scale}

    # Warm-up: the golden seed at toy size, checked against its digests.
    # The full-size golden round trip runs in the memory child (untraced).
    warm = make_inputs(bm, w, GOLDEN_SEED, TOY_SCALE)
    runner.run(warm, expect_digests=golden_digests(w, w.side // TOY_SCALE))
    inp = make_inputs(bm, w, args.seed, scale)

    if args.trace:
        metrics = per_layer(runner, inp, args.seconds, detail)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(runner, inp, scale, args.seconds, detail)
        units = END_TO_END_UNITS
    # The result line carries attempted and failed; the ratio is kept here
    # because a metric that reads 0 cannot take a relative bound.
    detail["fail_ratio"] = runner.failed / runner.attempted

    for err in runner.errors:
        print(err, file=sys.stderr)
    print("env " + json.dumps(env))
    print("detail " + json.dumps(detail))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
