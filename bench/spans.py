"""In-memory span recorder that wraps blockmark's public functions from outside.

The recorder patches the names that `blockmark.pipeline` looks up at call
time (it imports them into its own namespace), plus the image codec and the
side-info codec that the round trip calls directly. Nothing in the program
is edited; `Tracer.patched()` restores every name on exit.

A span is (id, round trip, name, parent id, start, end, n), where `n` is the
work count recorded at the boundary (blocks passed to a cipher call, marked
blocks in a plan). A wrapped name that no longer exists is reported absent,
and a count that can no longer be read is reported uncounted; neither fails
the round trip.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from statistics import median

# Top-level pipeline calls: their self time is pipeline.self_s.
TOP_LEVEL = (
    "embed_plain_then_encrypt",
    "encrypt_then_embed",
    "embed_two_domain",
    "extract_payload",
    "extract_two_domain",
    "decrypt",
)


def _eligible_count(args, kwargs):
    eligible = kwargs["eligible"] if "eligible" in kwargs else args[2]
    if getattr(eligible, "dtype", None) == bool:
        return int(eligible.sum())
    return len(eligible)


def _marked_count(result):
    return len(result.blocks)


# (module attribute path, span name, count from arguments, count from result)
WRAPPED = [
    ("pipeline.rotate_flip_blocks", "cipher.rotate_flip", _eligible_count, None),
    ("pipeline.unrotate_blocks", "cipher.unrotate", _eligible_count, None),
    ("pipeline.scramble_blocks", "cipher.scramble", _eligible_count, None),
    ("pipeline.unscramble_blocks", "cipher.unscramble", _eligible_count, None),
    ("pipeline.build_order_plan", "ordering.build_order_plan", None, _marked_count),
    ("pipeline.find_pp_zp", "histshift.find_pp_zp", None, None),
    ("pipeline.shift_histogram", "histshift.shift", None, None),
    ("pipeline.unshift_histogram", "histshift.unshift", None, None),
    ("pipeline.embed_bits", "histshift.embed_bits", None, None),
    ("pipeline.extract_bits", "histshift.extract_bits", None, None),
    ("image_io.decode_image", "image_io.decode", None, None),
    ("image_io.encode_image", "image_io.encode", None, None),
    ("pipeline.RegionMap.derive", "pipeline.region_derive", None, None),
    ("pipeline.SideInfo.to_bytes", "pipeline.sideinfo", None, None),
    ("pipeline.SideInfo.from_bytes", "pipeline.sideinfo", None, None),
] + [(f"pipeline.{name}", f"pipeline.{name}", None, None) for name in TOP_LEVEL]

# Per-layer metric -> (span names, what to sum per round trip, unit).
LAYER_METRICS = {
    "cipher.rotate_flip_s": (("cipher.rotate_flip",), "time", "s"),
    "cipher.unrotate_s": (("cipher.unrotate",), "time", "s"),
    "cipher.scramble_s": (("cipher.scramble",), "time", "s"),
    "cipher.unscramble_s": (("cipher.unscramble",), "time", "s"),
    "cipher.rotated_blocks": (("cipher.rotate_flip", "cipher.unrotate"), "n", "count"),
    "cipher.scrambled_blocks": (("cipher.scramble", "cipher.unscramble"), "n", "count"),
    "ordering.build_order_plan_s": (("ordering.build_order_plan",), "time", "s"),
    "ordering.build_order_plan_calls": (("ordering.build_order_plan",), "calls", "count"),
    "ordering.marked_blocks": (("ordering.build_order_plan",), "n", "count"),
    "histshift.find_pp_zp_s": (("histshift.find_pp_zp",), "time", "s"),
    "histshift.shift_s": (("histshift.shift",), "time", "s"),
    "histshift.unshift_s": (("histshift.unshift",), "time", "s"),
    "histshift.embed_bits_s": (("histshift.embed_bits",), "time", "s"),
    "histshift.extract_bits_s": (("histshift.extract_bits",), "time", "s"),
    "histshift.shift_calls": (("histshift.shift",), "calls", "count"),
    "image_io.decode_s": (("image_io.decode",), "time", "s"),
    "image_io.encode_s": (("image_io.encode",), "time", "s"),
    "pipeline.region_derive_s": (("pipeline.region_derive",), "time", "s"),
    "pipeline.region_derive_calls": (("pipeline.region_derive",), "calls", "count"),
    "pipeline.sideinfo_s": (("pipeline.sideinfo",), "time", "s"),
}

LAYER_PREFIXES = ("cipher", "ordering", "histshift", "image_io", "pipeline")


class Tracer:
    def __init__(self, bm):
        self._bm = bm
        self.spans: list[list] = []  # [id, rt, name, parent, start, end, n]
        self._stack: list[int] = []
        self.round_trip = -1
        self.absent: set[str] = set()
        self.uncounted: set[str] = set()

    def _wrap(self, name, fn, count_args, count_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            span = [sid, self.round_trip, name, parent, 0.0, None, None]
            if count_args:
                span[6] = self._count(name, count_args, args, kwargs)
            span[4] = time.perf_counter()
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if count_result:
                span[6] = self._count(name, count_result, result)
            return result

        return traced

    def _count(self, name, count, *args):
        # A count the program's signature or return type no longer supports
        # is reported, not raised: the round trip itself must not fail.
        try:
            return count(*args)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.uncounted.add(name)
            return None

    @contextlib.contextmanager
    def patched(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        restore = []
        try:
            for path, name, count_args, count_result in WRAPPED:
                *owner_path, attr = path.split(".")
                owner = self._bm
                for part in owner_path:
                    owner = getattr(owner, part, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.absent.add(name)
                    continue
                restore.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    bound = getattr(owner, attr)
                    new = staticmethod(self._wrap(name, bound, count_args, count_result))
                else:
                    new = self._wrap(name, raw, count_args, count_result)
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def per_round_trip(self, round_trips) -> dict[str, list[float]]:
        """Per-layer metric -> one value per traced round trip."""
        by_rt = defaultdict(list)
        for span in self.spans:
            by_rt[span[1]].append(span)
        out = {m: [] for m in LAYER_METRICS}
        out["pipeline.self_s"] = []
        for rt in round_trips:
            spans = by_rt.get(rt, [])
            for metric, (names, kind, _unit) in LAYER_METRICS.items():
                sel = [s for s in spans if s[2] in names]
                if kind == "time":
                    out[metric].append(sum(s[5] - s[4] for s in sel))
                elif kind == "calls":
                    out[metric].append(len(sel))
                else:
                    out[metric].append(sum(s[6] or 0 for s in sel))
            out["pipeline.self_s"].append(self_time(spans, TOP_LEVEL))
        return out

    def is_absent(self, metric: str) -> bool:
        """True when every span the metric sums was absent from the program."""
        if metric == "pipeline.self_s":
            names = [f"pipeline.{n}" for n in TOP_LEVEL]
        else:
            names = LAYER_METRICS[metric][0]
        return all(n in self.absent for n in names)


    def write(self, path) -> None:
        keys = ("id", "rt", "name", "parent", "start", "end", "n")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_shares(per: dict[str, list[float]], total_s: float) -> dict[str, float]:
    """Median per-round-trip time of each layer as a share of `total_s`.

    Pipeline time is its self time plus region and side-info spans, so the
    shares add up to about 1 over the traced API time.
    """
    shares = {}
    for prefix in LAYER_PREFIXES:
        keys = [
            m for m, (_n, kind, _u) in LAYER_METRICS.items()
            if m.startswith(prefix + ".") and kind == "time"
        ]
        if prefix == "pipeline":
            keys.append("pipeline.self_s")
        values = [sum(v) for v in zip(*(per[k] for k in keys))]
        shares[prefix] = median(values) / total_s if values else 0.0
    return shares


def self_time(spans, top_names) -> float:
    """Summed duration of top-level spans minus the time their direct
    children cover (calls are sequential, so children never overlap)."""
    child_time = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[5] - s[4]
    return sum(
        (s[5] - s[4]) - child_time[s[0]]
        for s in spans
        if s[2].split(".", 1)[-1] in top_names and s[3] is None
    )
