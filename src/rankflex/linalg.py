"""Dense float64 linear algebra, seeded sampling, and orthogonalization.

Matrices are plain ``numpy.ndarray`` objects in row-major float64; vectors are
1-D arrays. Nothing here mutates its inputs. Randomness always flows through an
explicit ``numpy.random.Generator`` created by :func:`seeded_rng`, which pins
the PCG64 bit generator so a given seed produces the same stream everywhere.

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


def gram_schmidt_extend(basis, candidate, rng, tol=1e-10, max_retries=8):
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
        w = b[:, j].astype(np.float64, copy=True)
        for _ in range(2):
            for u in ortho:
                w -= (w @ u) * u
        norm = float(np.linalg.norm(w))
        # Dropping a dependent column only widens the complement.
        if norm > tol * max(1.0, float(np.linalg.norm(b[:, j]))):
            ortho.append(w / norm)

    w = v.astype(np.float64, copy=True)
    for _ in range(max_retries):
        for _ in range(2):
            for u in ortho:
                w -= (w @ u) * u
        norm = float(np.linalg.norm(w))
        if norm >= tol:
            return w / norm
        w = rng.standard_normal(rows)
    raise DegenerateInputError(
        f"no orthogonal direction found after {max_retries} candidates"
    )


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
