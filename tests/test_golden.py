"""Golden digests: the artifact bytes of fixed runs, pinned per host.

``rankflex train`` writes trace.jsonl, metrics.csv and checkpoint.txt; their
sha256 digests are pinned for the criterion-8 config and for the desk and
churn benchmark configs (``bench/workloads.make_config(w, 401, 0)``, copied
here as literals so the test does not depend on the benchmark's code). A
shortened wide config (the same 4x512 model and teacher, 12 steps and 4
allocation events) covers the BLAS shapes the small configs never reach, and
a small relu stack covers the relu forward and backward. A refactor that must
not change behaviour proves it by leaving these alone.

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


def _stack(n, width, prefix, r_init, r_max, activation="tanh"):
    layers = []
    for i in range(n):
        if i:
            layers.append({"type": activation})
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


# The only pinned config with relu layers: their backward masks by the sign
# of the cached activation output.
RELU = {
    "name": "relu", "seed": 715517,
    "model": {"layers": _stack(3, 20, "r", 6, 12, activation="relu")},
    "task": {"kind": "low_rank_teacher", "input_dim": 20, "sample_count": 128,
             "noise_std": 0.05, "teacher_ranks": [8, 2, 5]},
    "optimizer": {"lr": 0.01},
    "schedule": {"b0": 2, "t_warmup": 100, "t_final": 50,
                 "total_steps": 600, "delta_t": 10},
    "metric": {"variant": "spectral_entropy"},
    "init_strategy": {"variant": "orthogonal_init"},
    "mode": "bidirectional",
    "batch_size": 16,
}


def _criterion_8():
    from test_acceptance import _determinism_config

    return config_to_json(_determinism_config())


CONFIGS = {"criterion8": _criterion_8, "desk": lambda: DESK, "churn": lambda: CHURN,
           "wide_short": lambda: WIDE_SHORT, "relu": lambda: RELU}

# fingerprint -> config -> (trace.jsonl, metrics.csv, checkpoint.txt) sha256.
PINNED = {
    "numpy 2.4.6; scipy-openblas 0.3.31.188.0; x86_64": {
        "criterion8": (
            "f276c6f55d8660682d949b15c572baf72b042756b51443a2dd7f4c96d34366a9",
            "7ac3925c1f56c4a0d647e603d721c3b679d1f62c31e39e17f1e1884eba57038f",
            "6bbaee1c6986e0926bbcdae0a676a2c7740582729e21efc7bc37b81e1a0830f5",
        ),
        "desk": (
            "838866e5096c3046c48fe3511118749e94d497b7f8b1a2d8b9515030a0799a9b",
            "2b228b0da6bdf082bde5e0dd303d59731534a68446e16173e23827c5f529403b",
            "5f08c913f3aacdba786002a963dc5f3153d4d4b108af9ba8902caadf12dde275",
        ),
        "churn": (
            "1a81de845f6fe3e003da8e004456c9a3eb77065d88d3616c6e2b7426d292ba44",
            "fb5f8a9070a18263237e49cd4a99320360e7c06a9bb83229c5dc443afd1021bd",
            "b25b4ef5b92d53894ee1c7ef189f55cb321bff78baa3bc06ee46298492d8632b",
        ),
        "wide_short": (
            "e7aee57c256c7416ebc46dd226eb86a6ae15b02726367b2981722764726d7101",
            "46a73e6ffb12bbb821e48a6e328753fbc8c09f2ee83076375372497223a497d4",
            "7fe8cabecca49f0087ceba22cedecdd34f60f4ec152f5f2a21945d63419ca5f9",
        ),
        "relu": (
            "24ef7b703207f55d32f439a3b3428bf100b73d546ed57bb5cd8edad1c6a61e12",
            "cf5123c7790a714f169e598594da17f97f3709cc5078f0a3188cbff48f136bc3",
            "769f339fe62049aca8a24282f39b95a0c1357b914d940d0c39e95e0f15270dd0",
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
