"""Independent reference implementations used as test oracles.

Everything here is coded directly from the mathematical definitions, without
importing from the package under test, so agreement is evidence rather than
tautology: extended-precision metric evaluation via mpmath, brute-force
matrix products, central finite differences, a from-scratch trace
bookkeeper, and the k-call orthonormal-column build that re-orthonormalizes
its whole basis for every column.
"""

import json

import mpmath
import numpy as np

mpmath.mp.dps = 50


def mp_energy(values):
    v = [mpmath.mpf(repr(float(x))) for x in values]
    total = mpmath.fsum(x * x for x in v)
    return v, [x * x / total for x in v], total


def mp_spectral_entropy(values, eps=1e-12):
    v, s, _ = mp_energy(values)
    r = len(v)
    e = mpmath.mpf(repr(float(eps)))
    h = -mpmath.fsum(si * mpmath.log(si + e) for si in s if si > 0)
    return h / mpmath.log(r)


def mp_nuclear(values):
    v = [mpmath.mpf(repr(float(x))) for x in values]
    return mpmath.fsum(abs(x) for x in v) / len(v)


def mp_frobenius(values):
    v = [mpmath.mpf(repr(float(x))) for x in values]
    return mpmath.sqrt(mpmath.fsum(x * x for x in v)) / len(v)


def mp_elem_energy_entropy(values, eps=1e-12):
    v, s, _ = mp_energy(values)
    r = len(v)
    e = mpmath.mpf(repr(float(eps)))
    total = mpmath.fsum(
        abs(vi) * si * mpmath.log(si + e) for vi, si in zip(v, s) if si > 0
    )
    return -total / (r * mpmath.log(r))


def mp_mat_energy_entropy(values, eps=1e-12):
    v, s, _ = mp_energy(values)
    r = len(v)
    e = mpmath.mpf(repr(float(eps)))
    ent = mpmath.fsum(si * mpmath.log(si + e) for si in s if si > 0)
    return -mpmath.fsum(abs(x) for x in v) * ent / (r * mpmath.log(r))


def mp_all_metrics(values, eps=1e-12):
    """The five metrics above from one conversion of the spectrum.

    Same definitions, precision and operation order as the single-metric
    oracles, so every value is the identical mpf; the energy distribution,
    each log(s_i + eps) and log(r) are just computed once instead of per
    metric. Returns (spectral entropy, nuclear mean, Frobenius mean,
    elementwise energy entropy, matrix energy entropy).
    """
    v, s, total = mp_energy(values)
    r = len(v)
    e = mpmath.mpf(repr(float(eps)))
    log_r = mpmath.log(r)
    live = [(vi, si, mpmath.log(si + e)) for vi, si in zip(v, s) if si > 0]
    ent = mpmath.fsum(si * li for _, si, li in live)
    return (
        -ent / log_r,
        mpmath.fsum(abs(x) for x in v) / r,
        mpmath.sqrt(total) / r,
        -mpmath.fsum(abs(vi) * si * li for vi, si, li in live) / (r * log_r),
        -mpmath.fsum(abs(x) for x in v) * ent / (r * log_r),
    )


def matmul_bruteforce(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def orthonormal_columns_k_calls(dim, k, rng, tol=1e-10, max_retries=8):
    """Teacher factor built one column per Gram-Schmidt call: each call
    re-orthonormalizes every earlier column (modified Gram-Schmidt, two
    passes, dropping dependent columns), then projects a Gaussian candidate
    off them, redrawing from ``rng`` while its residual norm is below
    ``tol``. O(k^3 * dim); the reference for the QR build."""

    def extend(basis, v):
        rows, count = basis.shape
        ortho = []
        for j in range(count):
            w = basis[:, j].astype(np.float64, copy=True)
            for _ in range(2):
                for u in ortho:
                    w -= (w @ u) * u
            norm = float(np.linalg.norm(w))
            if norm > tol * max(1.0, float(np.linalg.norm(basis[:, j]))):
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
        raise ValueError(f"no orthogonal direction after {max_retries} candidates")

    cols = np.zeros((dim, 0))
    for _ in range(k):
        cols = np.column_stack([cols, extend(cols, rng.standard_normal(dim))])
    return cols


def central_diff(f, arrays, h=1e-5):
    """Central finite differences of scalar f() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()
            flat[i] = orig - h
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def grad_close(analytic, numeric, rel=1e-5, abs_floor=1e-10):
    """Per-element agreement: |a-n| <= rel*max(|a|,|n|) + abs_floor."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    assert a.shape == n.shape
    diff = np.abs(a - n)
    bound = rel * np.maximum(np.abs(a), np.abs(n)) + abs_floor
    return bool(np.all(diff <= bound)), float(np.max(diff - bound))


def replay_trace_file(path):
    """From-scratch trace bookkeeper: returns (header, rank timeline rows).

    Parses the JSONL itself and replays ranks into the same CSV layout the
    heatmap export uses: one row per adapter in depth order, columns 'init'
    plus each step that has events.
    """
    header = None
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if obj["type"] == "header":
                header = obj
            elif obj["type"] == "event":
                events.append(obj)
    assert header is not None
    meta = sorted(header["adapters"], key=lambda m: m["depth"])
    ranks = {m["id"]: m["r_init"] for m in meta}
    steps = sorted({e["step"] for e in events})
    rows = {m["id"]: [ranks[m["id"]]] for m in meta}
    for step in steps:
        for e in events:
            if e["step"] != step:
                continue
            assert e["rank_before"] == ranks[e["adapter_id"]]
            ranks[e["adapter_id"]] = e["rank_after"]
        for m in meta:
            rows[m["id"]].append(ranks[m["id"]])
    lines = [",".join(["adapter", "init"] + [str(s) for s in steps])]
    for m in meta:
        lines.append(",".join([m["id"]] + [str(r) for r in rows[m["id"]]]))
    return header, lines, ranks
