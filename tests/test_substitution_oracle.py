"""Differential test: pixel-valued substitution against the frozen DNA-string one.

`oracle_substitute` and `oracle_reverse_substitute` are the original
implementations, kept verbatim as the reference: they take and return
`DnaImage` grids of four-base words.  The byte-level functions must draw the
same pointers from the same stream, decode the same pixels, and fail with the
same error type and attributes, for random images, seeds and keys whose
occurrence lists include singletons and empty lists.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bases
from dnamagic.dna import QUAD_TO_BYTE, DnaImage, resynthesize, synthesize
from dnamagic.errors import PointerOutOfRange, QuadNotCovered
from dnamagic.imageio import PlainImage
from dnamagic.reference import KmerIndex, NucleotideSequence, ReferenceKey, WINDOW_STARTS, scan_index
from dnamagic.substitution import PointerGrid, RandomStream, reverse_substitute, substitute


def oracle_substitute(dna: DnaImage, key: ReferenceKey, rng: RandomStream) -> PointerGrid:
    occurrences = key.index.occurrences
    pointers = []
    for quad in dna.quads:
        options = occurrences[QUAD_TO_BYTE[quad]]
        if not options:
            # unreachable for keys produced by build_key, which enforces coverage
            raise QuadNotCovered(quad)
        pointers.append(options[rng.randbelow(len(options))])
    return PointerGrid(dna.width, dna.height, tuple(pointers))


def oracle_reverse_substitute(grid: PointerGrid, key: ReferenceKey) -> DnaImage:
    bases = key.sequence.bases
    quads = []
    for i, p in enumerate(grid.pointers):
        if not 0 <= p < WINDOW_STARTS:
            raise PointerOutOfRange(i, p)
        quads.append(bases[p:p + 4])
    return DnaImage(grid.width, grid.height, tuple(quads))


SEQUENCE = NucleotideSequence(random_bases(random.Random(5150), WINDOW_STARTS + 4))
FULL_INDEX = scan_index(SEQUENCE)


def stub_key(overrides: dict) -> ReferenceKey:
    occurrences = list(FULL_INDEX.occurrences)
    for value, positions in overrides.items():
        occurrences[value] = positions
    return ReferenceKey(SEQUENCE, KmerIndex(tuple(occurrences), min(map(len, occurrences))), 0)


def outcome(call):
    try:
        return call()
    except QuadNotCovered as exc:
        return ("QuadNotCovered", exc.quad)
    except PointerOutOfRange as exc:
        return ("PointerOutOfRange", exc.index, exc.value)


positions = st.integers(0, WINDOW_STARTS - 1)
occurrence_lists = st.one_of(
    st.just(()),
    st.tuples(positions),
    st.lists(positions, min_size=2, max_size=6, unique=True).map(lambda ps: tuple(sorted(ps))),
)


@st.composite
def cases(draw):
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    overrides = draw(st.dictionaries(st.integers(0, 255), occurrence_lists, max_size=4))
    values = st.integers(0, 255)
    if overrides:
        # favour the overridden entries, so empty and singleton lists are hit
        values = st.sampled_from(sorted(overrides)) | values
    pixels = bytes(draw(st.lists(values, min_size=width * height, max_size=width * height)))
    seed = draw(st.integers(0, (1 << 64) - 1))
    return PlainImage(width, height, pixels), stub_key(overrides), seed


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_substitute_matches_frozen_oracle(case):
    image, key, seed = case
    new_rng, old_rng = RandomStream(seed), RandomStream(seed)
    new = outcome(lambda: substitute(image, key, new_rng))
    old = outcome(lambda: oracle_substitute(synthesize(image), key, old_rng))
    assert new == old
    # one draw per cell up to the same point: the streams stay in lockstep
    assert new_rng.next64() == old_rng.next64()
    if isinstance(new, PointerGrid):
        # overridden lists need not point at their own word, so compare
        # decodings rather than expect the image back
        assert reverse_substitute(new, key) == resynthesize(oracle_reverse_substitute(new, key))


out_of_range = st.sampled_from([-(1 << 16), -1, WINDOW_STARTS, WINDOW_STARTS + 1, 1 << 20])


@st.composite
def grids(draw):
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    cells = positions | out_of_range if draw(st.booleans()) else positions
    pointers = draw(st.lists(cells, min_size=width * height, max_size=width * height))
    return PointerGrid(width, height, tuple(pointers))


@settings(max_examples=300, deadline=None)
@given(grid=grids())
def test_reverse_substitute_matches_frozen_oracle(grid):
    key = stub_key({})
    new = outcome(lambda: reverse_substitute(grid, key))
    old = outcome(lambda: resynthesize(oracle_reverse_substitute(grid, key)))
    assert new == old
