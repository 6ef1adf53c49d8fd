"""Exception types shared across the package, and the reader that maps a
user-named file's I/O failures onto them."""


class RankflexError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(RankflexError, ValueError):
    """Operands have incompatible dimensions."""


class ParameterError(RankflexError, ValueError):
    """A numeric or structural argument is outside its allowed range."""


class ParseError(RankflexError, ValueError):
    """A text artifact (CSV, checkpoint) fails to parse."""


class RankFullError(RankflexError, RuntimeError):
    """No orthogonal direction exists: the basis already spans the space."""


class DegenerateInputError(RankflexError, RuntimeError):
    """Orthogonalization retries exhausted on numerically degenerate input."""


class DegenerateSpectrumError(RankflexError, ValueError):
    """All singular values are zero, so the energy distribution is undefined."""


class MinRankError(RankflexError, RuntimeError):
    """Prune requested on an adapter already at rank 1."""


class MaxRankError(RankflexError, RuntimeError):
    """Expansion requested on an adapter already at its rank cap."""


class StalenessError(RankflexError, RuntimeError):
    """Cached or selected state no longer matches the live model."""


class ConfigError(RankflexError, ValueError):
    """Invalid experiment configuration; the message names the field path."""


class TraceError(RankflexError, ValueError):
    """A trace file fails to parse or is internally inconsistent."""


def read_text(path, error, what):
    """Contents of the UTF-8 file ``path`` that a user named.

    A missing file, a directory, any other OSError and bytes that are not
    UTF-8 all raise ``error`` with a message naming ``what`` and the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
