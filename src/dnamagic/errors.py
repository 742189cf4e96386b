"""Exception types shared by all modules of the package."""


class DnamagicError(Exception):
    """Base class for every error this package raises on bad data or misuse."""


class MalformedHeader(DnamagicError):
    """PGM header is syntactically broken (bad magic, token, or dimension)."""


class UnsupportedMaxval(DnamagicError):
    def __init__(self, maxval: int):
        self.maxval = maxval
        super().__init__(f"only maxval 255 is supported, got {maxval}")


class TruncatedPayload(DnamagicError):
    def __init__(self, expected: int, actual: int):
        self.expected = expected
        self.actual = actual
        super().__init__(f"payload truncated: expected {expected}, got {actual}")


class InvalidSymbol(DnamagicError):
    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid symbol {char!r} at input offset {position}")


class EmptySequence(DnamagicError):
    def __init__(self) -> None:
        super().__init__("no bases found in input")


class SequenceTooShort(DnamagicError):
    def __init__(self, actual_length: int, required: int):
        self.actual_length = actual_length
        self.required = required
        super().__init__(f"key sequence has {actual_length} bases, need at least {required}")


class QuadCoverageError(DnamagicError):
    """The key sequence never contains some 4-base words, so it cannot encrypt
    every possible pixel value."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        shown = ", ".join(self.missing[:8])
        more = f" (+{len(self.missing) - 8} more)" if len(self.missing) > 8 else ""
        super().__init__(f"{len(self.missing)} quads never occur in the key window: {shown}{more}")


class NotDoublyEven(DnamagicError):
    def __init__(self, order: int):
        self.order = order
        super().__init__(f"order must be a multiple of 4 and at least 4, got {order}")


class OrderTooLarge(DnamagicError):
    def __init__(self, order: int, limit: int):
        self.order = order
        self.limit = limit
        super().__init__(f"order {order} exceeds the limit of {limit}")


class LengthMismatch(DnamagicError):
    def __init__(self, expected: int, actual: int):
        self.expected = expected
        self.actual = actual
        super().__init__(f"length mismatch: expected {expected}, got {actual}")


class QuadNotCovered(DnamagicError):
    def __init__(self, quad: str):
        self.quad = quad
        super().__init__(f"quad {quad} has no occurrence in the key window")


class PointerOutOfRange(DnamagicError):
    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        super().__init__(f"pointer {value} at cell {index} lies outside the key window")


class DimensionError(DnamagicError):
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        super().__init__(f"image must be square with side a positive multiple of 4, got {width}x{height}")


class WrongKey(DnamagicError):
    def __init__(self, embedded: int, computed: int):
        self.embedded = embedded
        self.computed = computed
        super().__init__(
            f"ciphertext fingerprint 0x{embedded:016x} does not match key fingerprint 0x{computed:016x}"
        )


class BadMagic(DnamagicError):
    def __init__(self, found: bytes):
        self.found = found
        super().__init__(f"not a DMC1 container (leading bytes {found!r})")


class UnsupportedVersion(DnamagicError):
    def __init__(self, version: int):
        self.version = version
        super().__init__(f"unsupported container version {version}")


class ZeroVariance(DnamagicError):
    def __init__(self, which: str):
        self.which = which
        super().__init__(f"series {which} has zero variance, correlation is undefined")
