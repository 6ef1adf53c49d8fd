"""Exception types shared across the package, the check of a choice field,
the context that maps a user-named file's I/O failures onto them, and what
a line of a text artifact is."""

from contextlib import contextmanager


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


def check_choice(name, value, choices):
    """Raise ParameterError, naming the field and the accepted values,
    unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ParameterError(f"{name} must be one of {', '.join(choices)}, got {value!r}")


@contextmanager
def reading(path, error, what):
    """Raise ``error``, naming ``what`` and the path, for a user-named file that
    is missing, a directory, unreadable, or not UTF-8 anywhere that is read."""
    try:
        yield
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def numbered_lines(lines):
    r"""(1-based number, line without its trailing "\n") for each non-blank
    line of ``lines``: a list of lines, or an open text file, which ends a
    line only at "\n", "\r\n" or "\r"."""
    return ((n, line.rstrip("\n")) for n, line in enumerate(lines, 1) if line.strip())
