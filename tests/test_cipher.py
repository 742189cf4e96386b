"""Encrypt/decrypt pipelines and the DMC1 container."""

import copy
import multiprocessing
import pickle
import random
import struct
import sys
import tracemalloc
from array import array
from concurrent.futures import ProcessPoolExecutor

import pytest

from conftest import oracle_doubly_even, random_bases, random_image
from dnamagic.cipher import (
    CipherImage,
    decrypt,
    deserialize,
    encrypt,
    serialize,
)
from dnamagic.errors import (
    BadMagic,
    DimensionError,
    PointerOutOfRange,
    TruncatedPayload,
    UnsupportedVersion,
    WrongKey,
)
from dnamagic.imageio import PlainImage
from dnamagic.magic_square import generate_doubly_even, scramble, to_permutation
from dnamagic.reference import MIN_KEY_LENGTH, NucleotideSequence, build_key
from dnamagic.substitution import Cells, RandomStream, substitute


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_round_trip(n, random_key):
    rng = random.Random(15)
    for _ in range(5):
        img = random_image(rng, n)
        cip = encrypt(img, random_key, RandomStream(rng.getrandbits(64)))
        assert decrypt(cip, random_key) == img


@pytest.mark.parametrize("fingerprint", [False, True])
@pytest.mark.parametrize("n", [4, 8, 20, 64, 132])
def test_encrypt_matches_reference_scramble(n, fingerprint, random_key):
    rng = random.Random(21)
    img = random_image(rng, n)
    seed = rng.getrandbits(64)
    cip = encrypt(img, random_key, RandomStream(seed), include_fingerprint=fingerprint)
    grid = substitute(img, random_key, RandomStream(seed))
    expected = tuple(scramble(grid.pointers, to_permutation(oracle_doubly_even(n))))
    assert cip.pointers == expected
    # a container built through the reference path still decrypts
    reference = CipherImage(n, n, expected, cip.flags, cip.fingerprint)
    assert decrypt(deserialize(serialize(reference)), random_key) == img


def test_same_image_two_seeds_unequal_ciphertexts(random_key):
    rng = random.Random(16)
    img = random_image(rng, 16)
    a = encrypt(img, random_key, RandomStream(100))
    b = encrypt(img, random_key, RandomStream(200))
    assert a.pointers != b.pointers
    assert decrypt(a, random_key) == decrypt(b, random_key) == img


@pytest.mark.parametrize("w,h", [(5, 5), (8, 4), (4, 8), (6, 6), (3, 3)])
def test_bad_dimensions_rejected(w, h, random_key):
    img = PlainImage(w, h, bytes(w * h))
    with pytest.raises(DimensionError):
        encrypt(img, random_key, RandomStream(1))


def test_decrypt_validates_dimensions(random_key):
    cip = CipherImage(5, 5, tuple(range(25)))
    with pytest.raises(DimensionError):
        decrypt(cip, random_key)


def test_decrypt_holds_a_few_bytes_per_cell(random_key):
    # a gather that boxes every cell into a tuple of ints peaks near 50 bytes per cell
    img = random_image(random.Random(16), 256)
    blob = serialize(encrypt(img, random_key, RandomStream(16)))
    tracemalloc.start()
    try:
        plain = decrypt(deserialize(blob), random_key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plain == img
    assert peak <= 13 * 256 * 256


def test_encrypt_holds_a_few_bytes_per_cell(random_key):
    # the draws and the list of cells held at once come to about 17 bytes per cell
    img = random_image(random.Random(16), 256)
    tracemalloc.start()
    try:
        blob = serialize(encrypt(img, random_key, RandomStream(16)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decrypt(deserialize(blob), random_key) == img
    assert peak <= 18 * 256 * 256


def test_wrong_key_garbles_without_fingerprint(random_key):
    rng = random.Random(17)
    img = random_image(rng, 8)
    cip = encrypt(img, random_key, RandomStream(42))
    for seed in range(10):
        wrong = build_key(NucleotideSequence(random_bases(random.Random(3000 + seed),
                                                          MIN_KEY_LENGTH)))
        assert decrypt(cip, wrong) != img


def test_wrong_key_detected_with_fingerprint(random_key):
    rng = random.Random(18)
    img = random_image(rng, 8)
    cip = encrypt(img, random_key, RandomStream(42), include_fingerprint=True)
    assert cip.flags == 1
    assert cip.fingerprint == random_key.fingerprint
    assert decrypt(cip, random_key) == img
    wrong = build_key(NucleotideSequence(random_bases(random.Random(4000), MIN_KEY_LENGTH)))
    with pytest.raises(WrongKey):
        decrypt(cip, wrong)


def test_corrupting_one_pointer_changes_exactly_one_pixel(random_key):
    rng = random.Random(19)
    img = random_image(rng, 8)
    cip = encrypt(img, random_key, RandomStream(7))
    cell = 10
    bases = random_key.sequence.bases
    old_quad = bases[cip.pointers[cell]:cip.pointers[cell] + 4]
    replacement = next(p for p in range(65536) if bases[p:p + 4] != old_quad)
    pointers = list(cip.pointers)
    pointers[cell] = replacement
    corrupted = CipherImage(8, 8, tuple(pointers))
    out = decrypt(corrupted, random_key)
    perm = to_permutation(generate_doubly_even(8))
    changed = [i for i in range(64) if out.pixels[i] != img.pixels[i]]
    assert changed == [perm.backward[cell]]


# ---- container ----

def test_serialize_golden_bytes():
    cip = CipherImage(4, 4, tuple(range(16)))
    blob = serialize(cip)
    assert len(blob) == 46  # 14-byte header + 16 cells of 2 bytes
    assert blob[:4] == bytes([0x44, 0x4D, 0x43, 0x31])  # "DMC1"
    assert blob[4] == 1
    assert blob[5] == 0
    assert blob[6:14] == b"\x04\x00\x00\x00\x04\x00\x00\x00"
    assert blob[14:] == bytes(
        [0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0,
         8, 0, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15, 0])


def test_serialize_deterministic():
    cip = CipherImage(4, 4, tuple(range(16)), 1, 0x0123456789ABCDEF)
    assert serialize(cip) == serialize(cip)
    assert len(serialize(cip)) == 54  # fingerprint adds 8 bytes


def test_container_round_trip_with_and_without_fingerprint():
    rng = random.Random(20)
    for n in (4, 8, 12, 16):
        pointers = tuple(rng.randrange(65536) for _ in range(n * n))
        plainc = CipherImage(n, n, pointers)
        assert deserialize(serialize(plainc)) == plainc
        fpc = CipherImage(n, n, pointers, 1, rng.getrandbits(64))
        assert deserialize(serialize(fpc)) == fpc


def test_deserialize_rejects_bad_magic():
    blob = bytearray(serialize(CipherImage(4, 4, tuple(range(16)))))
    blob[0] = 0x45
    with pytest.raises(BadMagic):
        deserialize(bytes(blob))


def test_deserialize_rejects_unknown_version():
    blob = bytearray(serialize(CipherImage(4, 4, tuple(range(16)))))
    blob[4] = 2
    with pytest.raises(UnsupportedVersion):
        deserialize(bytes(blob))


def test_deserialize_rejects_truncation():
    blob = serialize(CipherImage(4, 4, tuple(range(16))))
    with pytest.raises(TruncatedPayload):
        deserialize(blob[:-1])
    with pytest.raises(TruncatedPayload):
        deserialize(blob[:10])
    fp_blob = serialize(CipherImage(4, 4, tuple(range(16)), 1, 99))
    with pytest.raises(TruncatedPayload):
        deserialize(fp_blob[:20])


def test_deserialize_rejects_bad_header_dimensions():
    import struct
    blob = struct.pack("<4sBBII", b"DMC1", 1, 0, 5, 5) + bytes(50)
    with pytest.raises(DimensionError):
        deserialize(blob)


def test_deserialize_ignores_trailing_bytes():
    cip = CipherImage(4, 4, tuple(range(16)))
    assert deserialize(serialize(cip) + b"junk") == cip


def test_serialize_rejects_inconsistent_fingerprint_flag():
    with pytest.raises(ValueError):
        serialize(CipherImage(4, 4, tuple(range(16)), 1, None))
    with pytest.raises(ValueError):
        serialize(CipherImage(4, 4, tuple(range(16)), 0, 5))


@pytest.mark.parametrize("fields,error,message", [
    ((4, 4, (70000,) + (0,) * 15), PointerOutOfRange, "pointer 70000 at cell 0 "),
    ((4, 4, (0,) * 15 + (-1,)), PointerOutOfRange, "pointer -1 at cell 15 "),
    ((4, 4, (0,) * 16, 1, 1 << 64), ValueError, "fingerprint does not fit the DMC1 container"),
    ((1 << 32, 0, ()), ValueError, "width does not fit the DMC1 container"),
], ids=["cell-70000", "cell-minus-1", "fingerprint-2-64", "width-2-32"])
def test_serialize_rejects_values_dmc1_cannot_hold(fields, error, message):
    # a cell DMC1 cannot hold is rejected where the grid is built
    with pytest.raises(error, match=f"^{message}"):
        serialize(CipherImage(*fields))


def test_cipher_image_validates_cell_count():
    with pytest.raises(ValueError):
        CipherImage(4, 4, tuple(range(15)))


def test_cipher_image_survives_copy_deepcopy_and_pickle():
    cip = CipherImage(4, 4, tuple(range(60000, 60016)), 1, 99)
    copies = [copy.copy(cip), copy.deepcopy(cip)]
    copies += [pickle.loads(pickle.dumps(cip, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies:
        assert back == cip and hash(back) == hash(cip) and repr(back) == repr(cip)


def test_deserialize_in_a_spawned_worker_matches_in_process():
    blob = serialize(CipherImage(8, 8, tuple(range(1000, 1064)), 1, 42))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        remote = pool.submit(deserialize, blob).result(timeout=60)
    assert remote == deserialize(blob)


def test_deserialize_reads_bytes_bytearray_and_memoryview_alike():
    blob = serialize(CipherImage(4, 4, tuple(range(65520, 65536)), 1, 7))
    expected = deserialize(blob)
    for data in (bytearray(blob), memoryview(blob), memoryview(blob + b"junk")):
        assert deserialize(data) == expected
    with pytest.raises(TruncatedPayload):
        deserialize(memoryview(blob)[:-1])


def test_payload_is_byte_swapped_exactly_on_big_endian_hosts(monkeypatch):
    cells = tuple(range(258, 274))
    cip = CipherImage(4, 4, cells)
    assert serialize(cip)[14:] == struct.pack("<16H", *cells)
    # claiming the other byte order flips the native layout the buffer has,
    # which on either host gives big-endian bytes
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    assert serialize(cip)[14:] == struct.pack(">16H", *cells)
    assert deserialize(serialize(cip)) == cip


def test_draws_and_cells_are_byte_swapped_exactly_on_big_endian_hosts(monkeypatch):
    n = 5000  # past one 4,096-draw block
    draws = RandomStream(5).outputs(n)
    data = struct.pack(f"<{n}H", *range(n))
    cells = Cells.frombytes(data)
    assert cells == tuple(range(n))
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    # a host of the other order holds each item with its bytes reversed
    swapped_draws, swapped_cells = array("Q", draws), array("H", cells)
    swapped_draws.byteswap()
    swapped_cells.byteswap()
    assert RandomStream(5).outputs(n) == swapped_draws
    assert Cells.frombytes(data).buffer == swapped_cells
    assert Cells.frombytes(data).tobytes() == data
