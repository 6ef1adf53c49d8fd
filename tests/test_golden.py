"""Golden digests: the artifact bytes of three fixed runs, pinned per host.

``rankflex train`` writes trace.jsonl, metrics.csv and checkpoint.txt; their
sha256 digests are pinned for the criterion-8 config and for the desk and
churn benchmark configs (``bench/workloads.make_config(w, 401, 0)``, copied
here as literals so the test does not depend on the benchmark's code). A
shortened wide config (the same 4x512 model and teacher, 12 steps and 4
allocation events) covers the BLAS shapes the small configs never reach. A
refactor that must not change behaviour proves it by leaving these alone.

GEMM results depend on the BLAS build, so the pins are keyed by a host
fingerprint: the numpy version, the BLAS name and version, and the machine
architecture. On a host with no pinned entry the test skips and names the
fingerprint; it never passes there. To pin a new host, run this file, check
the run against a pinned host's artifacts some other way, and add the
printed fingerprint with its digests.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from rankflex.cli import OUTPUT_DIR_ENV, main
from rankflex.config import config_to_json

ARTIFACTS = ("trace.jsonl", "metrics.csv", "checkpoint.txt")


def _linear(d, adapter_id, r_init, r_max):
    return {"type": "linear", "d_in": d, "d_out": d,
            "adapter": {"id": adapter_id, "r_init": r_init, "r_max": r_max}}


def _stack(n, width, prefix, r_init, r_max):
    layers = []
    for i in range(n):
        if i:
            layers.append({"type": "tanh"})
        layers.append(_linear(width, f"{prefix}{i}", r_init, r_max))
    return layers


DESK = {
    "name": "desk", "seed": 1625349467,
    "model": {"layers": [_linear(16, "hi", 7, 14), {"type": "tanh"},
                         _linear(16, "lo", 7, 14)]},
    "task": {"kind": "low_rank_teacher", "input_dim": 16, "sample_count": 48,
             "noise_std": 0.1, "teacher_ranks": [12, 2]},
    "optimizer": {"lr": 0.01},
    "schedule": {"b0": 1, "t_warmup": 400, "t_final": 100,
                 "total_steps": 3000, "delta_t": 25},
    "metric": {"variant": "spectral_entropy"},
    "init_strategy": {"variant": "zero_impact"},
    "mode": "bidirectional",
    "batch_size": 16,
}

CHURN = {
    "name": "churn", "seed": 1506924968,
    "model": {"layers": _stack(8, 24, "c", 8, 24)},
    "task": {"kind": "low_rank_teacher", "input_dim": 24, "sample_count": 256,
             "noise_std": 0.05, "teacher_ranks": [1, 24, 4, 16, 2, 20, 8, 12]},
    "optimizer": {"lr": 0.01},
    "schedule": {"b0": 4, "t_warmup": 50, "t_final": 50,
                 "total_steps": 500, "delta_t": 1},
    "metric": {"variant": "spectral_entropy"},
    "init_strategy": {"variant": "orthogonal_init"},
    "mode": "bidirectional",
    "batch_size": 16,
}


WIDE_SHORT = {
    "name": "wide", "seed": 968208907,
    "model": {"layers": _stack(4, 512, "w", 24, 96)},
    "task": {"kind": "low_rank_teacher", "input_dim": 512, "sample_count": 2048,
             "noise_std": 0.01, "teacher_ranks": [64, 4, 32, 2], "teacher_scale": 16.0},
    "optimizer": {"lr": 0.02},
    "schedule": {"b0": 2, "t_warmup": 2, "t_final": 2,
                 "total_steps": 12, "delta_t": 5},
    "metric": {"variant": "spectral_entropy"},
    "init_strategy": {"variant": "zero_impact"},
    "mode": "bidirectional",
    "batch_size": 128,
}


def _criterion_8():
    from test_acceptance import _determinism_config

    return config_to_json(_determinism_config())


CONFIGS = {"criterion8": _criterion_8, "desk": lambda: DESK, "churn": lambda: CHURN,
           "wide_short": lambda: WIDE_SHORT}

# fingerprint -> config -> (trace.jsonl, metrics.csv, checkpoint.txt) sha256.
PINNED = {
    "numpy 2.4.6; scipy-openblas 0.3.31.188.0; x86_64": {
        "criterion8": (
            "a6e99fd9951518a3950d7bb1c541d3003ea925ee6f89225e094bc2ec5f10546e",
            "83d3c85907d79ec6971bf07cc9af9a838c9cf630383e7bf921077be59070a1da",
            "70df7e740608abc35f80b031d5481a75478036fe33f7f574c993888ee8b76632",
        ),
        "desk": (
            "4bbc127ac831b8e7487b3648bd80cc7c39ae4f9aea2c07c7ca86dbab40a19e64",
            "7f99e47c2929128c93e5b9ae9c228bde081ad747e4e9233d9abda1ad68cf0642",
            "41b2ac0c33b1e98b1a53a6ccaa6e39dca68c16519f1b812bca1a28d4d599ed85",
        ),
        "churn": (
            "9d12d7b195cf276ced57ab868110f0e3a3f6b672372502f19a32629cf945c625",
            "83bb2227f4642a805fa2910b92a598d42d8508989535ad7a7303b8b46e0c5862",
            "ebe86aa9a426583a0001c9798609e78e3dba205c6bd6713959b0f71b1ba8d7dd",
        ),
        "wide_short": (
            "0a1c2aab52891873dd8092cf563c459bc645d298a017134ef6f06c7d80e9b972",
            "d9d19d7b98d62b51c22200b4dbdd0440344d587c618b39f8b31df23a0ba6874b",
            "a1851bdf0328c07326690195174ca2dd08d58feb329f1641b2ce8fa7417315e4",
        ),
    },
}


def host_fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}; {platform.machine()}"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_digests(name, tmp_path, capsys):
    fingerprint = host_fingerprint()
    if fingerprint not in PINNED:
        pytest.skip(f"no golden digests pinned for host {fingerprint!r}")
    raw = dict(CONFIGS[name](), output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["train", str(path)]) == 0, capsys.readouterr().err
    digests = tuple(hashlib.sha256((tmp_path / "out" / a).read_bytes()).hexdigest()
                    for a in ARTIFACTS)
    assert dict(zip(ARTIFACTS, digests)) == dict(zip(ARTIFACTS, PINNED[fingerprint][name]))
