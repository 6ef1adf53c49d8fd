import copy
import hashlib
import json

import pytest

from rankflex.config import (
    SCHEMA_VERSION,
    apply_overrides,
    config_to_json,
    load_config_file,
    parse_config,
)
from rankflex.errors import ConfigError


def minimal_config():
    return {
        "model": {
            "layers": [
                {"type": "linear", "d_in": 8, "d_out": 6,
                 "adapter": {"id": "enc", "r_init": 2, "r_max": 4}},
                {"type": "tanh"},
                {"type": "linear", "d_in": 6, "d_out": 4},
            ],
        },
        "task": {
            "kind": "low_rank_teacher",
            "input_dim": 8,
            "sample_count": 64,
            "teacher_ranks": [3],
        },
        "schedule": {
            "b0": 2, "t_warmup": 10, "t_final": 10,
            "total_steps": 100, "delta_t": 5,
        },
    }


class TestParse:
    def test_minimal_parses_with_defaults(self):
        cfg = parse_config(minimal_config())
        assert cfg.name == "experiment"
        assert cfg.seed == 0
        assert cfg.loss == "mse"
        assert cfg.mode == "bidirectional"
        assert cfg.metric.variant == "spectral_entropy"
        assert cfg.init_strategy.variant == "zero_impact"
        assert cfg.optimizer.lr == 1e-2
        assert cfg.regularizer_weight == 0.1
        assert cfg.batch_size == 32
        assert cfg.log_every == 50
        assert cfg.output_dir is None
        assert cfg.layers[0].adapter.adapter_id == "enc"
        assert cfg.layers[0].adapter.alpha == 16.0
        assert cfg.task.teacher_ranks == (3,)
        assert cfg.schedule.b0 == 2

    def test_round_trip_is_fixed_point(self):
        cfg = parse_config(minimal_config())
        echoed = config_to_json(cfg, applied_overrides=["seed=3"])
        again = parse_config(echoed)
        assert config_to_json(again, applied_overrides=["seed=3"]) == echoed

    def test_echo_is_json_serializable_and_complete(self):
        cfg = parse_config(minimal_config())
        echoed = config_to_json(cfg)
        text = json.dumps(echoed, sort_keys=True)
        assert '"schema_version": 1' in text
        assert echoed["optimizer"]["weight_decay"] == 0.0
        assert echoed["applied_overrides"] == []

    def test_unknown_top_level_key(self):
        raw = minimal_config()
        raw["tempo"] = 3
        with pytest.raises(ConfigError, match="config.tempo"):
            parse_config(raw)

    def test_unknown_nested_key(self):
        raw = minimal_config()
        raw["schedule"]["budget"] = 2
        with pytest.raises(ConfigError, match="config.schedule.budget"):
            parse_config(raw)

    def test_missing_required_sections(self):
        for key in ("model", "task", "schedule"):
            raw = minimal_config()
            del raw[key]
            with pytest.raises(ConfigError, match=f"config.{key}"):
                parse_config(raw)

    def test_missing_schedule_field(self):
        raw = minimal_config()
        del raw["schedule"]["delta_t"]
        with pytest.raises(ConfigError, match="config.schedule.delta_t"):
            parse_config(raw)

    def test_type_errors_carry_paths(self):
        raw = minimal_config()
        raw["seed"] = "five"
        with pytest.raises(ConfigError, match="config.seed"):
            parse_config(raw)
        raw = minimal_config()
        raw["model"]["layers"][0]["d_in"] = 2.5
        with pytest.raises(ConfigError, match=r"layers\[0\].d_in"):
            parse_config(raw)
        raw = minimal_config()
        raw["schedule"]["b0"] = True
        with pytest.raises(ConfigError, match="config.schedule.b0"):
            parse_config(raw)

    def test_integer_beyond_float_range_is_not_finite(self):
        raw = minimal_config()
        raw["task"]["noise_std"] = 10**400
        with pytest.raises(ConfigError, match="config.task.noise_std: must be finite"):
            parse_config(raw)

    def test_bad_choice_values(self):
        raw = minimal_config()
        raw["mode"] = "diagonal"
        with pytest.raises(ConfigError, match="config.mode"):
            parse_config(raw)
        raw = minimal_config()
        raw["metric"] = {"variant": "entropy"}
        with pytest.raises(ConfigError, match="config.metric.variant"):
            parse_config(raw)

    def test_schema_version_checked(self):
        raw = minimal_config()
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(raw)

    def test_adapter_id_characters(self):
        raw = minimal_config()
        raw["model"]["layers"][0]["adapter"]["id"] = "bad id"
        with pytest.raises(ConfigError, match=r"adapter.id"):
            parse_config(raw)

    def test_adapter_rank_constraints(self):
        raw = minimal_config()
        raw["model"]["layers"][0]["adapter"]["r_max"] = 1
        with pytest.raises(ConfigError, match="r_max"):
            parse_config(raw)
        raw = minimal_config()
        raw["model"]["layers"][0]["adapter"]["r_max"] = 7
        with pytest.raises(ConfigError, match="r_max"):
            parse_config(raw)

    def test_empty_layer_list(self):
        raw = minimal_config()
        raw["model"]["layers"] = []
        with pytest.raises(ConfigError, match="layers"):
            parse_config(raw)

    def test_activation_layer_rejects_extras(self):
        raw = minimal_config()
        raw["model"]["layers"][1] = {"type": "tanh", "d_in": 3}
        with pytest.raises(ConfigError, match=r"layers\[1\].d_in"):
            parse_config(raw)

    def test_domain_validation_surfaces_with_path(self):
        # Constraint enforced by the task dataclass, not the field checks.
        raw = minimal_config()
        raw["task"]["teacher_ranks"] = []
        with pytest.raises(ConfigError, match="config.task"):
            parse_config(raw)

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    def test_fingerprint_tracks_content(self):
        a = parse_config(minimal_config())
        b = parse_config(minimal_config())
        assert a.fingerprint() == b.fingerprint()
        raw = minimal_config()
        raw["seed"] = 1
        c = parse_config(raw)
        assert c.fingerprint() != a.fingerprint()


class TestOverrides:
    def test_scalar_override(self):
        raw = apply_overrides(minimal_config(), ["schedule.b0=4", "seed=9"])
        assert raw["schedule"]["b0"] == 4
        assert raw["seed"] == 9
        cfg = parse_config(raw)
        assert cfg.schedule.b0 == 4 and cfg.seed == 9

    def test_original_untouched(self):
        base = minimal_config()
        snapshot = copy.deepcopy(base)
        apply_overrides(base, ["schedule.b0=4"])
        assert base == snapshot

    def test_json_values_and_string_fallback(self):
        raw = apply_overrides(minimal_config(),
                              ["name=trial", "mode=\"prune_only\"",
                               "regularizer_weight=0.25"])
        assert raw["name"] == "trial"
        assert raw["mode"] == "prune_only"
        assert raw["regularizer_weight"] == 0.25

    def test_list_index_path(self):
        raw = apply_overrides(minimal_config(),
                              ["model.layers.0.adapter.r_max=3",
                               "task.teacher_ranks.0=2"])
        assert raw["model"]["layers"][0]["adapter"]["r_max"] == 3
        assert raw["task"]["teacher_ranks"][0] == 2

    def test_new_leaf_in_existing_section_allowed(self):
        raw = apply_overrides(minimal_config(), ["output_dir=\"/tmp/x\""])
        assert raw["output_dir"] == "/tmp/x"

    def test_missing_intermediate_section(self):
        with pytest.raises(ConfigError, match="no such section"):
            apply_overrides(minimal_config(), ["nothere.b0=1"])

    def test_bad_list_index(self):
        with pytest.raises(ConfigError, match="bad list index"):
            apply_overrides(minimal_config(), ["model.layers.9.type=tanh"])
        with pytest.raises(ConfigError, match="bad list index"):
            apply_overrides(minimal_config(), ["model.layers.x.type=tanh"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            apply_overrides(minimal_config(), ["schedule.b0"])
        with pytest.raises(ConfigError, match="empty key"):
            apply_overrides(minimal_config(), ["=3"])

    def test_scalar_is_not_a_container(self):
        with pytest.raises(ConfigError, match="not a container"):
            apply_overrides(minimal_config(), ["schedule.b0.deeper=1"])


class TestLoadFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(minimal_config()))
        assert load_config_file(path) == minimal_config()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(tmp_path / "nope.json")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  \"a\": ,\n}\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config_file(path)

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 1


class TestPinnedOutput:
    """The config hash and the rendered effective_config.json are pinned, so a
    change to how configs are parsed or echoed cannot move either unnoticed."""

    @staticmethod
    def _effective_config_digest(cfg):
        # Rendered exactly as `rankflex train` writes effective_config.json.
        text = json.dumps(config_to_json(cfg), indent=2, sort_keys=True) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_minimal_config(self):
        cfg = parse_config(minimal_config())
        assert cfg.fingerprint() == (
            "afe186898cbc837cb0cea37f5c5ca8315936de160c9762b26d6fcdac71ef98a7")
        assert self._effective_config_digest(cfg) == (
            "ef70de8d6965b92e3f96020656410ec0da20a883b9eaa9656672f5cbde871740")

    def test_criterion_8_config(self):
        from test_acceptance import _determinism_config

        cfg = _determinism_config()
        assert cfg.fingerprint() == (
            "64b23d6e99b3b10a33755a817976253f3f8aecd6d168d033197880af12733c50")
        assert self._effective_config_digest(cfg) == (
            "5b507d1d755e9a83428fece32f831580205a9f09d7607b229581ae3c9b43f883")
