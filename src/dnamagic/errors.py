"""Exception types shared by all modules of the package."""


class DnamagicError(Exception):
    """Base class for every error this package raises on bad data or misuse.

    A subclass declares its positional `fields` and a str.format `message` over
    them; the arguments are kept as attributes and as `args`, so errors pickle.
    """

    fields: tuple[str, ...] = ()
    message = ""

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {len(self.fields)} arguments "
                            f"{self.fields}, got {len(values)}")
        super().__init__(*values)
        for name, value in zip(self.fields, values):
            setattr(self, name, value)

    def __str__(self) -> str:
        shown = {name: _printable(value) for name, value in vars(self).items()}
        return self.message.format_map(shown)


def _printable(value):
    """value, or a stand-in for an int with more digits than str() may write."""
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:  # past sys.get_int_max_str_digits()
            return f"<{value.bit_length()}-bit integer>"
    return value


class MalformedHeader(DnamagicError):
    """PGM header is syntactically broken (bad magic, token, or dimension)."""

    fields = ("reason",)
    message = "{reason}"


class UnsupportedMaxval(DnamagicError):
    fields = ("maxval",)
    message = "only maxval 255 is supported, got {maxval}"


class TruncatedPayload(DnamagicError):
    fields = ("expected", "actual")
    message = "payload truncated: expected {expected}, got {actual}"


class InvalidSymbol(DnamagicError):
    fields = ("position", "char")
    message = "invalid symbol {char!r} at input offset {position}"


class EmptySequence(DnamagicError):
    message = "no bases found in input"


class SequenceTooShort(DnamagicError):
    fields = ("actual_length", "required")
    message = "key sequence has {actual_length} bases, need at least {required}"


def list_quads(quads: list[str]) -> str:
    """The first 8 quads, comma-separated, then "(+N more)" if any are left."""
    return ", ".join(quads[:8]) + (f" (+{len(quads) - 8} more)" if len(quads) > 8 else "")


class QuadCoverageError(DnamagicError):
    """The key sequence never contains some 4-base words, so it cannot encrypt
    every possible pixel value."""

    fields = ("missing",)

    def __init__(self, missing: list[str]):
        super().__init__(list(missing))

    def __str__(self) -> str:
        return f"{len(self.missing)} quads never occur in the key window: {list_quads(self.missing)}"


class NotDoublyEven(DnamagicError):
    fields = ("order",)
    message = "order must be a multiple of 4 and at least 4, got {order}"


class OrderTooLarge(DnamagicError):
    fields = ("order", "limit")
    message = "order {order} exceeds the limit of {limit}"


class LengthMismatch(DnamagicError):
    fields = ("expected", "actual")
    message = "length mismatch: expected {expected}, got {actual}"


class PointerOutOfRange(DnamagicError):
    fields = ("index", "value")
    message = "pointer {value} at cell {index} lies outside the key window"


class DimensionError(DnamagicError):
    fields = ("width", "height")
    message = "image must be square with side a positive multiple of 4, got {width}x{height}"


class WrongKey(DnamagicError):
    fields = ("embedded", "computed")
    message = "ciphertext fingerprint 0x{embedded:016x} does not match key fingerprint 0x{computed:016x}"


class BadMagic(DnamagicError):
    fields = ("found",)
    message = "not a DMC1 container (leading bytes {found!r})"


class UnsupportedVersion(DnamagicError):
    fields = ("version",)
    message = "unsupported container version {version}"


class ZeroVariance(DnamagicError):
    fields = ("which",)
    message = "series {which} has zero variance, correlation is undefined"
