"""Byte pins of the JSONL stream for a spread of CLI runs.

Each case runs `afkit.cli.main` and compares the SHA-256 of the stream
and the exit code with pinned values, so a rewrite that means to keep
the bytes is held to it. Four cases run fixture files: a torus file, and
a discriminant, a shephard and a volume file that each hold one instance
whose record is an error or a failing witness, so the hypothesis
messages that reach the stream are pinned too. A fifth, a torus file
whose two instances hold classes that are not nef and big, pins the
NotBigError records.
The `bm --n 4 --m 1` run exits 1: a proportional instance's affine root
function misses the default tolerance by float rounding.
"""

import contextlib
import hashlib
import io
import json

import pytest

from afkit.cli import main
from afkit.convexvol import BodyTuple
from afkit.harness import derive_seed, gen_pd_hermitian, gen_polytope
from afkit.jsonio import body_tuple_to_json, gram_to_json, tuple_to_json
from afkit.mixdisc import MatTuple
from afkit.shephard import GramTable, gram_from_discriminants

from support import box, diag

PINS = [
    ("--mode all --n 2 --trials 4 --seed 5",
     "c7f8f52658f367e6b91686424f015d7737407dc019904fb1f73f9b6ef0cd01d2", 0),
    ("--mode all --n 3 --trials 2 --seed 77",
     "a5b085d059a995cd51b98ead9bd3e24b0494c484487a9a7c8b73b3a787484c3b", 0),
    # every generator at n = 4, volume at d = 4 and bm among them
    ("--mode all --n 4 --trials 2 --seed 0",
     "58d36a3d1f7ebf4e5b1729579c84833b61081d281a1c6497ecae5bda2f53021a", 0),
    ("--mode bm --n 4 --m 2 --trials 6 --seed 1",
     "23ce8f8e238a89e0963ffa4c63f777deb8b42d55bf7b9e0e9c67f4ec2897f6ea", 0),
    ("--mode bm --n 4 --m 1 --trials 6 --seed 3",
     "a5fcceb1dbc58c13c73fa7a73e27e70818e9078f3ff10ae0fc474c691802d28b", 1),
    ("--mode bm --n 3 --m 3 --grid 7 --trials 6 --seed 2",
     "2a8a1b9af81e83575d88058002704a81db5d4d8e708d9e3586c3266ab94f66a2", 0),
    ("--mode shephard --n 3 --r 5 --trials 6 --seed 4",
     "281c6c2e34b2943bb0455b4f69cb86def690e255d56f2536cf481b629cb4c285", 0),
    ("--mode volume --n 3 --m 3 --trials 3 --seed 5",
     "bf57f4f42a5c7f32bfeb79eb94cab086dbc01e5808edf7df72b264bfc9552af1", 0),
    # m = 2 volume runs, whose fold record is the pair verdict
    ("--mode volume --n 3 --trials 3 --seed 0",
     "9e69ba27ac601aa6a9b5dc9892f8802dda0401004b9dc1da0fccbf65382a479c", 0),
    ("--mode volume --n 4 --trials 2 --seed 0",
     "0cc03271f3dedc7ab6b03a44b9485338bdb1ae789c17b340e6d566cd701f3b6c", 0),
    # an m = 3 fold at d = 4, whose V(items) rereads the area measure
    # cached for the pair's rest
    ("--mode volume --n 4 --m 3 --trials 2 --seed 0",
     "48d3aa7aa16d1d34877bcb2241b8fd5836a025f6d26fb4138402cb0573e250d8", 0),
    # the full fold at d = 4: its right-hand side is four volumes
    # V(K, ..., K), and its V(items) rereads the cached rest area measure
    ("--mode volume --n 4 --m 4 --trials 2 --seed 0",
     "79e0ac5a901c1308d66c797c175a7f19039ac8ac2c99c6bdb4fb948084f8c769", 0),
    # n = 5 and 6, where the distinct-matrix values and the adjugates run the subset DP
    ("--mode discriminant --n 6 --trials 3 --seed 0",
     "b7b022f6f0d488d443f62f1d505c043ea494c80cf6cf20459e8f62d509fcf4d3", 0),
    ("--mode shephard --n 6 --r 3 --trials 3 --seed 0",
     "bf3b9a4b5c287739df7dd132d30e41c52e4dfedda2509496b593ef8007454ce1", 0),
    ("--mode torus --n 5 --trials 3 --seed 0",
     "fcb19321b9f00076dac8648f8ad6c5d1b047d9889df031c1ea2a445de4f358ec", 0),
    ("--mode torus --n 6 --m 3 --trials 3 --seed 0",
     "d12f6ff0ffd8562860916415914ed6926867c98ab821157c232ce8d4eb0510c0", 0),
    # an m = 5 fold, whose rests and adjugates outrun the 8-entry layer
    # memo most often, so rebuilt adjugates must give the same bytes
    ("--mode torus --n 6 --m 5 --trials 3 --seed 0",
     "4dc79b01f286a9df40d83ecf9cfa27bf779d2a0859aba9f490488043cabb826f", 0),
    # folds over repeated matrices at n = 4..6, whose values D(A^[m], tail)
    # once went to polarization and now run the DP, or det A at m = n
    ("--mode discriminant --n 6 --m 6 --trials 3 --seed 0",
     "be637a90bcbff4e45d609fd46a111637280302319c507f3e385a51a68aa3ab1e", 0),
    ("--mode bm --n 6 --m 6 --trials 3 --seed 0",
     "f3f118cbbadfa08e1510363997b9c22930aa91f121cd3c088f4b0302f3c8eff0", 0),
    ("--mode torus --n 4 --m 4 --trials 3 --seed 0",
     "a269f3f601768036a99763a9990223008e690959c34f651aaf1e0291210bb42b", 0),
]


def stream_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), got


@pytest.mark.parametrize("args, digest, code", PINS, ids=[a for a, _, _ in PINS])
def test_stream_digest(args, digest, code):
    assert stream_digest(args.split()) == (digest, code)


def test_torus_fixture_stream_digest(tmp_path):
    # a fixture run records the KT sequence right after the pair verdict
    mats = [gen_pd_hermitian(derive_seed(0, i), 5) for i in range(5)]
    lead = [mats[0], mats[0].scale(3)]
    path = tmp_path / "torus.json"
    path.write_text(json.dumps([tuple_to_json(MatTuple(m)) for m in (mats, lead + mats[2:])]))
    assert stream_digest(["--mode", "torus", "--n", "5", "--in", str(path)]) == (
        "e718ed99d83584eaa044d7e4352b38ff679aa622ceaea7c59fc5b41b46641f8f", 0
    )


def fixture_digest(tmp_path, mode, n, items):
    path = tmp_path / f"{mode}.json"
    path.write_text(json.dumps(items))
    return stream_digest(["--mode", mode, "--n", str(n), "--in", str(path)])


def test_discriminant_fixture_with_an_indefinite_instance(tmp_path):
    # the middle instance's first matrix is indefinite: a HypothesisError record
    mats = [gen_pd_hermitian(derive_seed(1, i), 3) for i in range(3)]
    tuples = [mats, [diag(1, -1, 2)] + mats[1:], mats[::-1]]
    items = [tuple_to_json(MatTuple(t)) for t in tuples]
    assert fixture_digest(tmp_path, "discriminant", 3, items) == (
        "ee29b6edcc24f6f51e2ceb3370a562b2cbb2038487215ec73d356d12c3ae0e69", 1
    )


def test_torus_fixture_with_classes_that_are_not_big(tmp_path):
    # diag(1, 0, 0) is nef but not big, diag(1, -1, 2) is not nef: two NotBigError records
    mats = [gen_pd_hermitian(derive_seed(4, i), 3) for i in range(2)]
    tuples = [[diag(1, 0, 0)] + mats, mats + [diag(1, -1, 2)]]
    items = [tuple_to_json(MatTuple(t)) for t in tuples]
    assert fixture_digest(tmp_path, "torus", 3, items) == (
        "656a14cc47ee0eaca07b00ee82e5bfe1cb564e79c51529ae34fb34ada7213a63", 1
    )


def test_shephard_fixture_with_a_non_psd_table(tmp_path):
    # the identity table's Shephard matrix is -I: a psd false witness
    mats = [gen_pd_hermitian(derive_seed(2, i), 3) for i in range(4)]
    identity = GramTable([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    items = [gram_to_json(g) for g in (gram_from_discriminants(mats[:3], mats[3:]), identity)]
    assert fixture_digest(tmp_path, "shephard", 3, items) == (
        "ab0053211b9b47b6c41b764060443795526017d4b95ff1125bddb3afc2a9bf62", 1
    )


def test_volume_fixture_with_a_flat_body(tmp_path):
    # the second tuple holds a square in the plane z = 0
    bodies = [gen_polytope(derive_seed(3, i), 3, 6) for i in range(3)]
    flat = box([2, 1, 0])
    items = [body_tuple_to_json(BodyTuple(t)) for t in (bodies, [bodies[0], flat, bodies[2]])]
    assert fixture_digest(tmp_path, "volume", 3, items) == (
        "07d72baf3d98555733f6ab0b441964c64149c966de2f604579b9a82b5013bb9e", 0
    )
