"""Golden DMC1 containers: files written by an earlier release must still decrypt.

Each blob was written by `encrypt` + `serialize` before `CipherImage` shared
its cells with `PointerGrid`, from the bench canary's key and images (both
rebuilt here from SHAKE-256) and the recorded seed.  Every blob must decrypt
to the image with the recorded SHA-256, re-serialize to itself, and be
produced again by `encrypt` with the same seed.
"""

import hashlib

import pytest

from dnamagic import reference
from dnamagic.cipher import decrypt, deserialize, encrypt, serialize
from dnamagic.imageio import PlainImage
from dnamagic.substitution import RandomStream

# (side, seed, fingerprint) -> (SHA-256 of the plaintext pixels, DMC1 bytes)
GOLDEN = {
    (4, 101, False): (
        "268b66cf55621fc19d45a9b64ab208cc502d62e27e423aed3d21b9ce31bc5068",
        bytes.fromhex(
            "444d433101000400000004000000d9cc524d4db8c79061723075249be6607824"
            "ad1dbe1641040bf67370a0f604af")),
    (8, 102, True): (
        "eb31c4b4cfba3d7b6fabb87b332548f8cfdebf8a4d33416514bdadbe6ae60ff1",
        bytes.fromhex(
            "444d433101010800000008000000c8ed4e4aca36985305886840534a6ff95c85"
            "217e93fc2c8c946eca1c3957361e8e794a244ec93ceb0f417e98225f2793bf58"
            "2399e942c217f7a5918021ebb92cde7b103a7fb7ab47a03a48c48eedae3142bf"
            "8bf73195b203999f81f599acbd270dfb551b45e2961fabe3d575c126bfecf1b8"
            "a3e4a18453a1ece6b3d78a4f9755d102278aa4467d90")),
    (16, 103, False): (
        "5b63a96742da76973ebde1c4ecba969b2fe0b04f9fae4f8f54a37444baf08bdb",
        bytes.fromhex(
            "444d43310100100000001000000010599d96906d367da4cc3eec9708575f0348"
            "4bab4ae30f445724fcf71cedde0c55ea90146e92781208490485218c3261706a"
            "8949c971d545198b98b38a1eae94023e0eadcb63224b0cee6e9bda411804ac2e"
            "fe413e6dc1d1a189b0330eec0cc0817978db137bdf9ea817d0ed559a5e626370"
            "8f000ec1c54e53140633d7d3bc7e87f0384b34e3e8c2e18cf4105b1657dfd9a5"
            "6e7a317eaedb70b49f4ec1d9cedc6b3a1a3fcc4520d177d8519df2253a1fe061"
            "bbccbb445e9800559b234d55eb93b9d846a1e783f8da3bfeb3b641f7519ab813"
            "ef652a050913b75c60bd4caf9a204b7b81393f5deafd6b3b37715e568fb48018"
            "a54ef8cf4257768e2181782533000c5d565f973aafa95747b80b7a541be20291"
            "847201bdb2d93eaea9ec71e063a28bbdb6b416e14b4b24a7416be26f936492a3"
            "9c2fae43b6d2493f90c47bacc5254936d7f542714591d92aecde5bf16f1a152b"
            "cb31497f5f03c44617474d789969a869b49c8d99e4a8af0e754a2be927aa327b"
            "b9712cbfd95109020050764bf29038b0da281e5550c7edb87a7e166975db299a"
            "843b5e6106bdf7bcc664358bd724d9aa10fd0c8475ba3632be4a499418732406"
            "997054b0161892425ac761dd3202b868b9a1421b133b52643ccd130170d91a08"
            "7a8200f4a15b4845f2897d1f0b99a2b32ab5d81d4f73b1cc8dedd8573c987dd2"
            "2fda9fa6e98e5fcae4ebde28262c")),
    (16, 104, True): (
        "5b63a96742da76973ebde1c4ecba969b2fe0b04f9fae4f8f54a37444baf08bdb",
        bytes.fromhex(
            "444d433101011000000010000000c8ed4e4aca3698535ce707b1646a45e8813a"
            "2baa3197fdc7e46141abbd443d6402e68286b85a00c353933c4594766739d09c"
            "ccc1096908177a1f48443f7a6e72d4ffa3e901c4d7ec46ec3bfd765b1526176c"
            "0c2a106f7601daa2617e9f28d6e558c20a41933cea731b27ed5a5644d9d8f3bb"
            "ba3f87f1a62470bf6350500456cc387dd19663c5c9e970a6eff23cbd1727bd18"
            "f60968eebe08eb9eab3beabd57be3babfa288aa928acf52b8a6f315198052773"
            "129bc9106e2260448949f8089f4c33025317b9c4c9b6b124942a868b1d4289fd"
            "b71419a79ff450c4fd66b56ae04313c280b2932ec89cba11fe55863eea859394"
            "c5fb34218e5c67959a34fa7d6fd2fe70296e73e9f20fcd7acff9cd13baf3154d"
            "9f5795b10f2b05fa41045019fa821e1cd519c53610f9e40f3c17c54d1b4df8a4"
            "8f4a9d4a048a4dd68490160280259d0d46fce173b78cd5038e83e870e468b944"
            "d1e4d9fc5deb79a3728e18e5c884ce4486c8646b906eed7f7d9e28d8a971c0c7"
            "1d340548ab047d720abeabf438a2443095cc52bc85654010450a1d6d6bfd3390"
            "d172f18c700f39c90da67a3db84ad13403301d693325f63f16eeb0937cfc7d60"
            "43ef9b2d6814bd82d1de5c016d29855fd9dbc5fbeb553716b9a1022c4006ca6c"
            "84276ad53135fe6e882cb2b70e31896878dbe22afabd1cda9eb1231561854f0a"
            "dc0d4667d8ee6f28223ebd6f49469699532191a741b9")),
}


def _bytes(label: str, n: int) -> bytes:
    return hashlib.shake_256(f"dnamagic-canary:{label}".encode()).digest(n)


@pytest.fixture(scope="module")
def canary_key() -> reference.ReferenceKey:
    bases = _bytes("key", 70_000).translate(bytes(b"ACGT"[b & 3] for b in range(256)))
    lines = b"\n".join(bases[i:i + 60] for i in range(0, len(bases), 60))
    return reference.build_key(reference.parse_fasta(b">canary key\n" + lines + b"\n"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_container_decrypts_to_its_plaintext(case, canary_key):
    digest, blob = GOLDEN[case]
    image = decrypt(deserialize(blob), canary_key)
    assert image.width == image.height == case[0]
    assert hashlib.sha256(image.pixels).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_container_reserializes_to_itself(case):
    blob = GOLDEN[case][1]
    assert serialize(deserialize(blob)) == blob


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_encrypt_with_the_recorded_seed_writes_the_golden_container(case, canary_key):
    side, seed, fingerprint = case
    image = PlainImage(side, side, _bytes(f"image-{side}", side * side))
    assert hashlib.sha256(image.pixels).hexdigest() == GOLDEN[case][0]
    cipher = encrypt(image, canary_key, RandomStream(seed), include_fingerprint=fingerprint)
    assert serialize(cipher) == GOLDEN[case][1]
