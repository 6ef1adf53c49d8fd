"""Dense float64 linear algebra, seeded sampling, and orthogonalization.

Matrices are plain ``numpy.ndarray`` objects in row-major float64; vectors are
1-D arrays. Nothing here mutates its inputs. Randomness always flows through an
explicit ``numpy.random.Generator`` created by :func:`seeded_rng`, which pins
the PCG64 bit generator so a given seed produces the same stream everywhere.

Orthogonalization is modified Gram-Schmidt with a second pass, stated once in
two steps: orthonormalize one column into a list, and project a candidate off
the list, redrawing it while it is degenerate. ``gram_schmidt_extend`` serves
a basis that changes between calls, so it rebuilds the list from every basis
column. ``orthonormal_columns`` builds a whole factor and keeps the list from
one column to the next, orthonormalizing each new column into it once; both
give the same bits for the same columns and draws.

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
    "seeded_rng",
    "split_rng",
    "gaussian_matrix",
    "gram_schmidt_extend",
    "orthonormal_columns",
    "matrix_to_csv_lines",
    "matrix_from_csv_lines",
]


def seeded_rng(seed):
    """Return a PCG64 generator for ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed))


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


def _project_twice(w, ortho):
    """Subtract ``w``'s components along the orthonormal list in place, in two
    passes, which pins the leak at machine precision."""
    for _ in range(2):
        for u in ortho:
            w -= (w @ u) * u


def _orthonormalize_into(ortho, col, tol):
    """Append ``col``'s normalized component orthogonal to ``ortho`` to the
    list, unless it is zero or dependent on the list."""
    w = col.astype(np.float64, copy=True)
    _project_twice(w, ortho)
    norm = float(np.linalg.norm(w))
    # Dropping a dependent column only widens the complement.
    if norm > tol * max(1.0, float(np.linalg.norm(col))):
        ortho.append(w / norm)


def _project_off(ortho, candidate, rng, tol, max_retries):
    """Unit vector orthogonal to the orthonormal list, from ``candidate`` or,
    while the residual norm falls below ``tol``, fresh Gaussian draws."""
    w = candidate.astype(np.float64, copy=True)
    for _ in range(max_retries):
        _project_twice(w, ortho)
        norm = float(np.linalg.norm(w))
        if norm >= tol:
            return w / norm
        w = rng.standard_normal(w.shape[0])
    raise DegenerateInputError(
        f"no orthogonal direction found after {max_retries} candidates"
    )


def gram_schmidt_extend(
    basis, candidate, rng, tol=_GS_TOL, max_retries=_GS_MAX_RETRIES
):
    """Unit vector orthogonal to every column of ``basis``.

    The basis columns are first orthonormalized internally (modified
    Gram-Schmidt with one reorthogonalization pass, so conditioning does not
    matter; zero or dependent columns drop out). The candidate is then
    projected off that orthonormal set twice, which pins the leak at machine
    precision. A candidate whose residual norm falls below ``tol`` is
    replaced by a fresh Gaussian draw from ``rng``; after ``max_retries``
    failed candidates the input is declared degenerate.

    Raises RankFullError when the basis has as many columns as rows, and
    DegenerateInputError when no candidate survives.
    """
    b = _as_2d(basis, "basis")
    rows, cols = b.shape
    if cols >= rows:
        raise RankFullError(
            f"basis with {cols} columns in R^{rows} leaves no orthogonal direction"
        )
    v = np.asarray(candidate, dtype=np.float64).reshape(-1)
    if v.shape[0] != rows:
        raise ShapeError(f"candidate length {v.shape[0]} != basis rows {rows}")
    ortho = []
    for j in range(cols):
        _orthonormalize_into(ortho, b[:, j], tol)
    return _project_off(ortho, v, rng, tol, max_retries)


def orthonormal_columns(dim, k, rng):
    """``dim``-by-``k`` matrix of orthonormal columns drawn from ``rng``.

    Column j projects a Gaussian candidate off columns 0..j-1, exactly as
    ``gram_schmidt_extend`` would with those columns as its basis, and gives
    the same bits and the same draws. Because column j's orthonormalized form
    depends only on columns 0..j, the orthonormal list is kept from one column
    to the next and each column is orthonormalized into it once: O(k^2 * dim)
    for the factor rather than O(k^3 * dim).

    Raises RankFullError when ``k`` exceeds ``dim``, and DegenerateInputError
    when no candidate survives.
    """
    if k > dim:
        raise RankFullError(f"{k} orthonormal columns do not fit in R^{dim}")
    ortho = []
    out = np.empty((dim, k))
    for j in range(k):
        candidate = rng.standard_normal(dim)
        col = _project_off(ortho, candidate, rng, _GS_TOL, _GS_MAX_RETRIES)
        out[:, j] = col
        if j < k - 1:
            _orthonormalize_into(ortho, col, _GS_TOL)
    return out


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
