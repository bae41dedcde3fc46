"""Golden digests: refactors must not change a single output byte.

Each case embeds a fixed payload into a small synthetic image with keys from
`generate_keys(seed=...)`, then pins the SHA-256 of the encoded marked image,
the side-info bytes, and the extracted payload. The inputs have a narrow
value range, so colliding sort keys and ambiguous blocks are common and the
tie paths of the order plan shape the ciphertext too.

To re-pin after an intended format change, run `python tests/test_golden.py`
and paste its output over `GOLDEN`.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from blockmark import (
    Image,
    decrypt,
    embed_plain_then_encrypt,
    embed_two_domain,
    encode_image,
    encrypt_then_embed,
    extract_payload,
    extract_two_domain,
    generate_keys,
    histogram,
)

SIDE = 64
MODES = ("plain", "encrypt", "two")
CASES = list(itertools.product(MODES, ("gray", "rgb"), (True, False), (4, 16)))


def _case_id(case) -> str:
    mode, color, per_plane, block = case
    return f"{mode}-{color}-{'per_plane' if per_plane else 'shared'}-b{block}"


def _image(color: str, seed: int) -> Image:
    # A gentle ramp plus small noise: values span ~40 levels, so every
    # plane has empty bins and many blocks share slot counts and masks.
    rng = np.random.default_rng(seed)
    ramp = np.add.outer(np.arange(SIDE) // 4, np.arange(SIDE) // 5) + 90
    planes = [
        (ramp + rng.integers(0, 4, size=(SIDE, SIDE))).astype(np.uint8)
        for _ in range(3 if color == "rgb" else 1)
    ]
    return Image(tuple(planes))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case) -> tuple[dict, bool]:
    """Digests of (image, side info, payload), and whether the round trip
    restored the original exactly."""
    mode, color, per_plane, block = case
    seed = CASES.index(case)
    image = _image(color, seed)
    keys = generate_keys(two_domain=mode == "two", per_plane=per_plane, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    # A quarter of the peak-bin total fits one domain; each of the two
    # regions gets a sixteenth, since the peak band may miss most of one.
    n_bits = sum(int(histogram(p).max()) for p in image.planes)
    n_bits //= 16 if mode == "two" else 4
    payload = rng.integers(0, 2, size=n_bits, dtype=np.uint8)

    if mode == "two":
        payload_b = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        marked, side = embed_two_domain(image, payload, payload_b, keys, block)
        got_a, got_b, restored = extract_two_domain(marked, side, keys.k_region)
        extracted = got_a.tobytes() + got_b.tobytes()
        ok = np.array_equal(got_a, payload) and np.array_equal(got_b, payload_b)
    else:
        embed = embed_plain_then_encrypt if mode == "plain" else encrypt_then_embed
        marked, side = embed(image, payload, keys, block)
        got, restored = extract_payload(marked, side)
        extracted = got.tobytes()
        ok = np.array_equal(got, payload)
    ok = ok and decrypt(restored, side, keys) == image

    digests = {
        "image": _sha(encode_image(marked)),
        "side": _sha(side.to_bytes()),
        "payload": _sha(extracted),
    }
    return digests, ok


GOLDEN = {
    'plain-gray-per_plane-b4': {'image': '9e5a08dd5f1f930de273e58d99742c9f8f3cfa87af0df81dfecef6fee9a09da0', 'side': 'df05f983be1ed27a2f3ec496dbca914fb189b41b441e113c099b7a417d77f766', 'payload': '76ffab99064906b6298642caa35f1089c1679788e42e74071d5015ea7b9036f1'},
    'plain-gray-per_plane-b16': {'image': '2197b81a902cf649adf047f42a6540a5aa07f1fd420d513bfe5f3da172c2a448', 'side': '35e9b7d07a5489f0edef8ea167a7682d53f7013d4b18c36258c06031b14b29b0', 'payload': '95eb4f620d95c9df8ad737689381528597dd70f7d96e0109a12fb9feb9fa8bea'},
    'plain-gray-shared-b4': {'image': '2baf35cfebf567996e1b320235b5290547eb88ae099ab8624e911978fb8a3f06', 'side': 'a8c1da7e2d561480efa876d8cb825bc106518e0dc65ed09b34a6ab80ee7c96e6', 'payload': 'db2882cd1a1571685797ddea88dbc3a84abf4043c39bc0c86ba5f19860a2c894'},
    'plain-gray-shared-b16': {'image': 'a31548aae42d40b6d00c1c84e3b5e2d5f1cb1706fd50fb720410ac98e806d57b', 'side': '37cd7dffc325ae8cf3dd18c8f553d7d770d4e73e952c454661a51e075e4572d3', 'payload': 'b4f7e504c6581034cc856317ed6c2cb3bd55fcf82be920d4cd0fff88705b7998'},
    'plain-rgb-per_plane-b4': {'image': '6c2a7f471457bcde2c4d6cf5169509d1f14a3492eb4b8b5b7e0985fa4784ef23', 'side': 'b7328a3fceddf8e624ed9ddae5781342d761776c7eccf049f53ee3739965c7fd', 'payload': '4bdd283f41ca10ec116634d667e0e9f831dee1375f4ac3425cc08bea62b140f8'},
    'plain-rgb-per_plane-b16': {'image': 'a4794226dbe32c8007c9974d914b870eddca9f31c7545442558f50f8a381bc92', 'side': '74260982a70a678f7a2318014e0e080765f7f8a6391641916a44d896ff704695', 'payload': '1da72acdb321a150353f318f8eaebe0e0b228ee58ddb85c1be0ec8b9ba938d86'},
    'plain-rgb-shared-b4': {'image': '9045c7c62f61e66e71ef97500225d3f1ea8ac0d0d6a317695c7015ba76bcbfa6', 'side': '1b446ebbfb0331191e0df7eecfc86cdf39b100bc95657d2dd9e006dfb5eebaeb', 'payload': '03a6dc351542d37ec59ade911928c59af502b67a0a92bcee7a96572f17ef2400'},
    'plain-rgb-shared-b16': {'image': 'ea7a27c73c8ae029cace915f99cbb882c9b517bc05ab56aae19948a35a7fa2b4', 'side': '8bba822582ac9789169c626ba40dd63be4381c54c8c04da7f3c104885fd9f02f', 'payload': 'a37d8867c65d180289e0a725921319aee2fe27a8661a7177f3aade66861c6316'},
    'encrypt-gray-per_plane-b4': {'image': '895617779c6d2b38c445ecb0e16e4fb96d72ca51d8722ed30fc259a3a21eb0c2', 'side': '6302d6829ef995369e57b852013592424c4c25580efeee564b5483e3f46ada6f', 'payload': '14c7361599c29d4c0470a2c1319d086c0ace3b126eae147c445ce3b8a3f098ec'},
    'encrypt-gray-per_plane-b16': {'image': 'e375469fc5111f27f623394b9714e75433adb7ff25f6fe063455ab003803a5e7', 'side': '0412f4ac8b7fc73fbf7e06dd21c8d829e40212d0c36d9811ce423305c57e5b94', 'payload': '21691f45a74e4b8aded9a4b2408cd9b789d15c6a5cd236d68e8430150bd7ed1c'},
    'encrypt-gray-shared-b4': {'image': '9cf22b03289d3877e61098b97852aeae63b20458da45f1f556e56a1dbe2fdab5', 'side': '2bc3d58c5b55917ef533c2db2791747d945dea846ae3d1fa2ce105c89194d3b3', 'payload': '67afc201919007d4d3c80d88c687c96c1017b68f84ea5beca6e1b7e1f1f7305b'},
    'encrypt-gray-shared-b16': {'image': '02a814413f991195aa99adbc338aa6618fc57fd85be96fb97a340b58c5be230d', 'side': 'c7a7903d1599feb6b656156fd9e0e29e6d7a146eea0d4e4acf59fb01edeba76b', 'payload': 'e4a17fa31d48a9da4fea99f3f07842d5439e10845d67ea28f292363783f35647'},
    'encrypt-rgb-per_plane-b4': {'image': '6f5862be931cbee552c4fdbd6c86e3e8d66dc3d6eaa73d85f540b5abd7d0316b', 'side': 'b19a60b60a5c43d0261f5c6fbabdc9a30982820463ecb613ca60060893d0a65e', 'payload': '5fa010b0baab8fb2e65f5615052d22ed021ff42011fff37ca8fd464b9be89088'},
    'encrypt-rgb-per_plane-b16': {'image': 'a253a6d5747f3deeb26cd2e26717d82a70e1218adef461fd2221631433691fee', 'side': 'be3e983f7edf9b5866bdc17ceb7a0c0a3bd6e5165f4d65d3e2cad2d153e92798', 'payload': 'a261913d5442a41e75427ae0bdb6764a56dd38de5954c6881a1c0ab848b76577'},
    'encrypt-rgb-shared-b4': {'image': '6636c641641c56651a35ae4348ab1934d1d5dd6c2cf90d9e4b56a60665d632c9', 'side': '37d75916ded887d821cff2c3b5a1a9a5ddc441431782ae6d258e086cbf07c253', 'payload': 'ad50ecebc534972cc90fc9041378b61a8db0d8d93b30059c3fa8c00a32558f75'},
    'encrypt-rgb-shared-b16': {'image': 'fc2eeed0a13d728da5bf1456faacf2c936ce3d5bedb23a9160e8e7178ed0ea72', 'side': '91e90697f5f8f711f1eecd0ba4adac22f13924dd9ebd5daba8f1a431cc0d4e57', 'payload': '607988b5408975bbba8809c1048ff183ac2f21d01693db64d9ac898afa5164e0'},
    'two-gray-per_plane-b4': {'image': 'b9bb3e5b9600d12cec6ffe1d09ceeac923a9dd258857b653226ebaed9b0f7883', 'side': 'eeca7d383f59d0700e1aa211ea2479112b531d21966e93ca48ce1662d7c21deb', 'payload': 'b7cd3222c6d4638f4f5b2dfa8eccc8af355d301efee257ee7c0ba07677a436b1'},
    'two-gray-per_plane-b16': {'image': 'e7ec176d3beb96eb5c653c6020a2988a72af4bc378b448434a411254e6368206', 'side': '928b823a3b3baf430c462a92b134e2af44b7fdc8950767389a5ef19e9db5eddb', 'payload': '85fdecf17bc39d68a8c16da3200f2541dceb31a1cd99f1f11ee19022209f1e55'},
    'two-gray-shared-b4': {'image': '8d2217f01969226d2b748cf2ed24148745abfbce2c1541d32060a7de5a5d3a26', 'side': 'e6c4bc0fdb8a5022033eb4cb1147d606d48d881d4e145d41ef7424e44b618964', 'payload': '78aa2b6180e35c87238145e294099015987e66c7b470039a8d9f70b75522fe20'},
    'two-gray-shared-b16': {'image': 'a7c31ced0058478de1f66814f51f94d80d5f1c8672f5855af32e623c941cf82d', 'side': '135a28f75ade8a5dc709751e3bfffe217b5ac6e9eda279c8ea9de034df93f166', 'payload': '0335fa2dc4f246ce0f76eca3a8da1203106d0151738f54986672c5402259eba4'},
    'two-rgb-per_plane-b4': {'image': '79a3479d3f7002bdf8e14e0d16f2a2a182cf11055ea007a790ddab552b9ec250', 'side': 'acad29457f7280b72eb38adcf1b09e899e8708d06bce5d8ea5391f396752b5d9', 'payload': '6e68d60e086583444e3a9e73e8d88c4d44ecc43f0c476275ec130d95355322ef'},
    'two-rgb-per_plane-b16': {'image': '0bc3726c5a28ffa0ff1f0828114cf463d725f27ae09b852458e57f5433b0ce48', 'side': '419ed01d7f962b1d09589fd8a6995a16bea3fffeec6a3d93a3f38247bbe57095', 'payload': '95f3ed2dfab02835ad2c18b10dc23b093480e81d9d1ec5064303198e7885604b'},
    'two-rgb-shared-b4': {'image': '998aeaedfef8e64af3a1fc4da220f8b737e694b9c2eb949a83df9e111e15293d', 'side': 'b25ff9e9a2ea5bb5628b49c0d47e940a85236f62fb03f275c400e230a3fcea03', 'payload': 'b9f981f4a01e1e01c18cede12ecaf93dbd122c507d857f0d5090c5d51622997e'},
    'two-rgb-shared-b16': {'image': 'eacb9fc2ecd91690265a5bb6a4c383454e8821fc4089fff10bc8f92af5bc5ba7', 'side': '04f230e66393f27c69f5ea95cde06d51357f1040bc16baaef7683c69a8fd5662', 'payload': 'ca64efbd5e1f4b7ee0022eb5a5f7b1f65c40283ce9a212de90e8a8cb7b463ace'},
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_digests(case):
    digests, ok = run_case(case)
    assert ok, "round trip did not restore payload and image exactly"
    assert digests == GOLDEN[_case_id(case)]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {_case_id(case)!r}: {run_case(case)[0]!r},")
