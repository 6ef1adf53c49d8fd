"""Dense float64 linear algebra, seeded sampling, and orthogonalization.

Matrices are plain ``numpy.ndarray`` objects in row-major float64; vectors are
1-D arrays. Nothing here mutates its inputs. Randomness always flows through an
explicit ``numpy.random.Generator``; :func:`split_rng` spawns a run's
independent streams from its seed.

Orthonormalization has one form: a Householder QR of the columns, with zero
or dependent columns dropped and each kept column signed the way
Gram-Schmidt would give it. Rank expansion projects a candidate off such a
span; the teacher's factors are the span of a block of Gaussian columns.

Matrix CSV lines hold one row each, values separated by commas, each value
formatted with ``repr`` so the round trip is exact at the bit level.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateInputError,
    ParameterError,
    ParseError,
    RankFullError,
    ShapeError,
)

__all__ = [
    "split_rng",
    "gaussian_matrix",
    "gram_schmidt_extend",
    "orthonormal_columns",
    "matrix_to_csv_lines",
    "matrix_from_csv_lines",
]


def split_rng(seed, n):
    """Return ``n`` independent generators spawned from one seed.

    Streams are separated through ``SeedSequence.spawn``, so adding draws to
    one consumer never perturbs the others.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    return [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n)]


def _as_2d(a, name="matrix"):
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def gaussian_matrix(rows, cols, std, rng):
    """Sample a rows-by-cols matrix with i.i.d. N(0, std^2) entries."""
    if rows < 1 or cols < 1:
        raise ParameterError(f"matrix dims must be positive, got {rows}x{cols}")
    if not std > 0.0:
        raise ParameterError(f"std must be positive, got {std}")
    return std * rng.standard_normal((rows, cols))


# Residual-norm floor and redraw budget of the orthogonalization steps.
_GS_TOL = 1e-10
_GS_MAX_RETRIES = 8


def _orthonormal_span(b):
    """Orthonormal columns spanning ``b``'s columns, each column dropped that
    lies within ``_GS_TOL * max(1, |b_j|)`` of the kept columns before it,
    and each kept column signed so R's diagonal is positive, as Gram-Schmidt
    orients it.

    ``|R_jj|`` of a Householder QR is column j's distance from the span of
    the columns before it only while none of them was dropped: a dropped
    column's Q direction lies outside the basis's span, and later columns
    may have components along it. So the first dropped column is removed and
    the rest factored again, which for a full-rank basis is one QR.
    """
    floor = _GS_TOL * np.maximum(1.0, np.linalg.norm(b, axis=0))
    while True:
        q, r = np.linalg.qr(b)
        diag = np.diagonal(r)
        dropped = np.flatnonzero(np.abs(diag) <= floor)
        if dropped.size == 0:
            return q * np.sign(diag)
        b = np.delete(b, dropped[0], axis=1)
        floor = np.delete(floor, dropped[0])


def gram_schmidt_extend(basis, candidate, rng):
    """Unit vector orthogonal to every column of ``basis``.

    The candidate is projected twice off the basis's orthonormal span, in
    which zero or dependent columns drop out; the second pass pins the leak
    at machine precision. A candidate whose residual norm falls below
    ``_GS_TOL`` is replaced by a fresh Gaussian draw of length ``rows`` from
    ``rng``; after ``_GS_MAX_RETRIES`` failed candidates the input is
    declared degenerate.

    Raises RankFullError when the basis has as many columns as rows,
    ShapeError on a candidate of the wrong length, ParameterError on a
    non-finite basis or candidate, and DegenerateInputError when no
    candidate survives.
    """
    b = _as_2d(basis, "basis")
    rows, cols = b.shape
    if cols >= rows:
        raise RankFullError(
            f"basis with {cols} columns in R^{rows} leaves no orthogonal direction"
        )
    v = np.array(candidate, dtype=np.float64).reshape(-1)
    if v.shape[0] != rows:
        raise ShapeError(f"candidate length {v.shape[0]} != basis rows {rows}")
    if not (np.isfinite(b).all() and np.isfinite(v).all()):
        raise ParameterError("basis and candidate must be finite")
    u = _orthonormal_span(b)
    for _ in range(_GS_MAX_RETRIES):
        for _ in range(2):
            v -= u @ (u.T @ v)
        norm = float(np.linalg.norm(v))
        if norm >= _GS_TOL:
            return v / norm
        v = rng.standard_normal(rows)
    raise DegenerateInputError(
        f"no orthogonal direction found after {_GS_MAX_RETRIES} candidates"
    )


def orthonormal_columns(dim, k, rng):
    """``dim``-by-``k`` matrix of orthonormal columns drawn from ``rng``: the
    span of k Gaussian columns, drawn as one ``(k, dim)`` block so the stream
    advances as k draws of length ``dim`` would.

    Raises RankFullError when ``k`` exceeds ``dim``, and DegenerateInputError
    when fewer than ``k`` of the drawn columns are independent.
    """
    if k > dim:
        raise RankFullError(f"{k} orthonormal columns do not fit in R^{dim}")
    q = _orthonormal_span(rng.standard_normal((k, dim)).T)
    if q.shape[1] < k:
        raise DegenerateInputError(f"only {q.shape[1]} of {k} drawn columns are independent")
    return q


def matrix_to_csv_lines(m):
    """Render a matrix as CSV lines with exact float round-trip."""
    m = _as_2d(m)
    return [",".join(repr(float(x)) for x in row) for row in m]


def matrix_from_csv_lines(lines):
    """Parse CSV lines back into a matrix; strict about shape and values."""
    rows = []
    width = None
    for i, line in enumerate(lines):
        text = line.strip()
        if not text:
            raise ParseError(f"row {i}: empty line inside matrix")
        cells = text.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(f"row {i}: expected {width} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"row {i}: non-numeric cell ({exc})") from None
    if not rows:
        raise ParseError("empty matrix")
    m = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ParseError("matrix contains non-finite values")
    return m
