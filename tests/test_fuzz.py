"""Malformed input may raise only BlockmarkError subclasses.

Images and side info arrive from outside the program, so every decoder and
every receiver-side flow is fed arbitrary and mutated bytes. Any exception
that is not a BlockmarkError fails the test. Command lines arrive from
outside too: the CLI must answer any argument list with an exit code.
"""

import json
import os
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmark import (
    BlockmarkError,
    CodecError,
    CodecSpec,
    HistPair,
    KeySet,
    Mode,
    SideInfo,
    decode_image,
    decrypt,
    embed_plain_then_encrypt,
    embed_two_domain,
    encode_image,
    encrypt_then_embed,
    extract_payload,
    extract_two_domain,
    generate_keys,
    load_codec_config,
    save_key_file,
)
from blockmark import cli
from conftest import random_bits, synth_image


def _case(mode, color, per_plane):
    rng = np.random.default_rng(3)
    image = synth_image(64, 64, rng, color=color)
    keys = generate_keys(two_domain=mode == Mode.TWO_DOMAIN, per_plane=per_plane, seed=9)
    if mode == Mode.TWO_DOMAIN:
        out, side = embed_two_domain(image, random_bits(rng, 20), random_bits(rng, 20), keys, 8)
    else:
        embed = embed_plain_then_encrypt if mode == Mode.PLAIN_FIRST else encrypt_then_embed
        out, side = embed(image, random_bits(rng, 40), keys, 8)
    return encode_image(out), side.to_bytes(), keys


CASES = [
    _case(Mode.PLAIN_FIRST, False, True),
    _case(Mode.ENCRYPT_FIRST, True, False),
    _case(Mode.TWO_DOMAIN, True, True),
]


def _receive(image, side, keys):
    """Extract and decrypt, each allowed to refuse with a BlockmarkError."""
    try:
        if side.mode == Mode.TWO_DOMAIN:
            extract_two_domain(image, side, keys.k_region)
        else:
            extract_payload(image, side)
    except BlockmarkError:
        pass
    try:
        decrypt(image, side, keys)
    except BlockmarkError:
        pass


# Bytes that change what a header token or a small field means.
_BYTE = st.sampled_from(b"-0189 #\n\x00\xff") | st.integers(0, 255)


@st.composite
def mutated(draw, data: bytes, hot: int):
    """`data` with 1-3 byte replacements, insertions or deletions, half of
    them within its first `hot` bytes."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        limit = min(hot, len(out)) if draw(st.booleans()) else len(out)
        pos = draw(st.integers(0, max(limit - 1, 0)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or not out:
            out.insert(pos, draw(_BYTE))
        elif op == "replace":
            out[pos] = draw(_BYTE)
        else:
            del out[pos]
    return bytes(out)


def _with_crc(body: bytes) -> bytes:
    return body + zlib.crc32(body).to_bytes(4, "big")


class TestImageBytes:
    @settings(max_examples=300)
    @given(st.binary(max_size=64) | st.builds(lambda b: b"P5" + b, st.binary(max_size=64)))
    def test_arbitrary_bytes(self, data):
        try:
            decode_image(data)
        except BlockmarkError:
            pass

    @pytest.mark.parametrize("case", range(len(CASES)))
    @settings(max_examples=300)
    @given(st.data())
    def test_mutated_image(self, case, data):
        image_bytes, side_bytes, keys = CASES[case]
        try:
            image = decode_image(data.draw(mutated(image_bytes, 16)))
        except BlockmarkError:
            return
        _receive(image, SideInfo.from_bytes(side_bytes), keys)


class TestSideInfoBytes:
    @pytest.mark.parametrize("case", range(len(CASES)))
    @settings(max_examples=300)
    @given(st.data())
    def test_mutated_side_info(self, case, data):
        image_bytes, side_bytes, keys = CASES[case]
        body = bytearray(side_bytes[:-4])
        if data.draw(st.booleans()):
            # The two block-size fields (bytes 7-10) must agree to parse,
            # which byte mutations alone rarely achieve.
            body[7:11] = data.draw(st.integers(0, 2**16 - 1)).to_bytes(2, "big") * 2
        body = data.draw(mutated(bytes(body), len(body)))
        try:
            side = SideInfo.from_bytes(_with_crc(body))
        except BlockmarkError:
            return
        _receive(decode_image(image_bytes), side, keys)


# Arbitrary Python values for a constructor field.
_ANY = (
    st.none()
    | st.booleans()
    | st.integers(-2, 300)
    | st.floats(allow_nan=False)
    | st.binary(max_size=20)
    | st.text(max_size=20)
    | st.tuples(st.integers(0, 255), st.integers(0, 255))
)
_KEY = st.binary(min_size=16, max_size=16) | st.text(min_size=16, max_size=16) | _ANY
_PAIR = st.builds(HistPair, st.integers(0, 127), st.integers(128, 255)) | _ANY


@st.composite
def side_info_fields(draw):
    """SideInfo arguments: often shaped like a valid one (a bit length per
    pair, or two), with any field replaced by an arbitrary value."""
    n = draw(st.integers(0, 3))
    lengths = st.lists(st.integers(0, 99), min_size=n, max_size=n)
    fields = [
        st.sampled_from(list(Mode)) | _ANY,
        st.integers(1, 64) | _ANY,
        st.lists(_PAIR, min_size=n, max_size=n).map(tuple) | _ANY,
        st.one_of(lengths, st.lists(st.integers(0, 99), min_size=2 * n, max_size=2 * n)).map(tuple)
        | _ANY,
        _ANY,
    ]
    return [draw(field) for field in fields]


class TestConstructors:
    @settings(max_examples=200, deadline=None)
    @given(st.tuples(_KEY, _KEY, _KEY | st.none(), _ANY), side_info_fields())
    def test_arbitrary_fields(self, key_fields, side_fields):
        # What KeySet accepts, the embed flows can use; what SideInfo
        # accepts, `to_bytes` writes and `from_bytes` reads back as it was.
        image_bytes, _, keys = CASES[2]
        image = decode_image(image_bytes)
        try:
            made = KeySet(*key_fields)
            embed_plain_then_encrypt(image, [1, 0], made, 8)
            encrypt_then_embed(image, [1, 0], made, 8)
            embed_two_domain(image, [1], [0], made, 8)
        except BlockmarkError:
            pass
        try:
            side = SideInfo(*side_fields)
        except BlockmarkError:
            return
        assert SideInfo.from_bytes(side.to_bytes()) == side
        _receive(image, side, keys)


# Templates near the edges of what `load_codec_config` accepts.
_TEMPLATE = st.sampled_from(
    ["cp {in} {out}", "", "  ", "{", "{x}", "{0}", "{in.x}", "{in[x]}", "{in!z}", "'", "a\x00b"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEMPLATE,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "encode", "decode", "other"]), inner, max_size=4),
    max_leaves=12,
)


class TestCodecConfig:
    @settings(max_examples=300)
    @given(st.binary(max_size=64) | _JSON.map(lambda v: json.dumps(v).encode()))
    def test_arbitrary_config(self, tmp_path_factory, data):
        cfg = tmp_path_factory.mktemp("codecs") / "codecs.json"
        cfg.write_bytes(data)
        try:
            specs = load_codec_config(cfg)
        except CodecError:
            return
        for spec in specs:
            assert isinstance(spec, CodecSpec) and spec.name
            assert isinstance(spec.encode, str) and isinstance(spec.decode, (str, type(None)))


def _cli_files():
    """Name -> bytes of the files a fuzzed command line may name: a tiny
    gray and RGB image, a two-domain key file, a payload, and a marked
    image with its plain-first and two-domain side info."""
    rng = np.random.default_rng(5)
    gray, rgb = synth_image(32, 32, rng, color=False), synth_image(32, 32, rng, color=True)
    keys = generate_keys(two_domain=True, seed=5)
    marked, side = embed_plain_then_encrypt(gray, random_bits(rng, 8), keys, 4)
    _, side_b = embed_two_domain(gray, random_bits(rng, 2), random_bits(rng, 2), keys, 8)
    return {
        "gray.pgm": encode_image(gray),
        "rgb.ppm": encode_image(rgb),
        "marked.pgm": encode_image(marked),
        "plain.etrd": side.to_bytes(),
        "two.etrd": side_b.to_bytes(),
        "payload.bin": b"\xa5",
    }, keys


CLI_FILES, CLI_KEYS = _cli_files()

# Per subcommand: its positional count, and option -> kind of value (None
# marks a flag without one).
_CLI_COMMANDS = {
    ("keygen",): (0, {"--out": "path", "--two-domain": None, "--seed": "int"}),
    ("embed",): (2, {
        "--mode": "mode", "--block": "int", "--key": "path", "--payload": "path",
        "--payload-b": "path", "--sideinfo": "path", "--joint-keys": None,
    }),
    ("extract",): (2, {
        "--sideinfo": "path", "--key": "path", "--payload-b-out": "path",
        "--image-out": "path",
    }),
    ("decrypt",): (2, {"--sideinfo": "path", "--key": "path"}),
    ("analyze", "psnr"): (2, {"--json": "path"}),
    ("analyze", "capacity"): (1, {"--block": "int", "--key": "path", "--json": "path"}),
    ("analyze", "correlation"): (1, {
        "--pairs": "int", "--seed": "int", "--subsample": "int", "--json": "path",
    }),
    ("compress-eval",): (1, {"--codecs": "path", "--json": "path"}),
}

_INT = st.integers(-2, 40) | st.integers(-(2**70), 2**70) | st.sampled_from(["x", "1.5", ""])
_PATH = st.sampled_from([*CLI_FILES, "keys.txt", "missing", "sub/out", ".", "out.pgm"])
_VALUE = {
    "int": _INT.map(str),
    "mode": st.sampled_from(["plain-first", "encrypted-first", "two-domain", "both"]),
    "path": _PATH,
}
_STRAY = st.sampled_from(["--bogus", "-x", "--block=abc", "--", "-h", "--mode", "7"])
_OFTEN = st.integers(0, 7).map(bool)  # True 7 times in 8


@st.composite
def cli_argv(draw):
    """A subcommand (or an unknown one) with most of its options, values of
    the wrong kind, missing or extra positionals and unknown flags."""
    command = draw(st.sampled_from([*_CLI_COMMANDS, ("frobnicate",), ("analyze", "nope"), ()]))
    n_positional, options = _CLI_COMMANDS.get(command, (0, {}))
    words = []
    for option, kind in options.items():
        if draw(_OFTEN):
            words.append([option] if kind is None else [option, draw(_VALUE[kind])])
    n_positional = n_positional if draw(_OFTEN) else draw(st.integers(0, 3))
    words += [[draw(_PATH)] for _ in range(n_positional)]
    if not draw(_OFTEN):
        words.append([draw(_STRAY)])
    words = draw(st.permutations(words))
    return [*command, *(w for group in words for w in group)]


class TestCommandLine:
    @settings(max_examples=300)
    @given(cli_argv())
    def test_any_argument_list_exits_with_a_code(self, tmp_path_factory, argv):
        # Every word may end up naming a file, so run inside a fresh directory.
        work = tmp_path_factory.mktemp("cli")
        for name, data in CLI_FILES.items():
            (work / name).write_bytes(data)
        save_key_file(CLI_KEYS, work / "keys.txt")
        (work / "sub").mkdir()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            assert cli.main(argv) in (0, 1, 2, 3)
        finally:
            os.chdir(cwd)
