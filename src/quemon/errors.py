"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed textual input: words, alphabet files, CLI arguments."""


class PreconditionError(ValueError):
    """An operation was called on inputs violating its stated requirements."""


class EmptyWordError(PreconditionError):
    """A nonempty word was required."""


class NotPrimitiveError(PreconditionError):
    """A primitive word was required."""


class AlphabetMismatchError(PreconditionError):
    """Operands belong to different alphabets."""


class RecipeMismatchError(PreconditionError):
    """An embedding recipe does not fit the alphabet or word it is applied to."""


class NotEmbeddableError(ValueError):
    """The independence alphabet admits no embedding into a direct product
    of two free monoids.  Carries the classification as ``args[0]``."""


class CapExceededError(RuntimeError):
    """An enumeration or iteration bound was exceeded."""


class VerificationFailedError(RuntimeError):
    """A constructed identity failed its normal-form check."""


class InternalError(RuntimeError):
    """An internal consistency check failed; this indicates a bug."""
