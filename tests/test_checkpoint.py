import re

import numpy as np
import pytest

from rankflex.adapter import InitStrategy
from rankflex.checkpoint import (
    adapter_record_lines,
    checkpoint_lines,
    load_checkpoint,
    parse_checkpoint_lines,
    save_checkpoint,
)
from rankflex.errors import ParseError
from rankflex.linalg import seeded_rng
from rankflex.model import AdapterSpec, LayerSpec, build_model


def sample_model(seed=70, bias=True):
    specs = [
        LayerSpec("linear", d_in=6, d_out=5, bias=bias,
                  adapter=AdapterSpec("enc", 2, 4, alpha=8.0)),
        LayerSpec("relu"),
        LayerSpec("linear", d_in=5, d_out=3, bias=bias),
    ]
    model = build_model(specs, "mse", seeded_rng(seed))
    rng = seeded_rng(seed + 1)
    for a in model.adapters():
        a.lam[:] = rng.standard_normal(a.rank)
    if bias:
        model.layers[0].bias[:] = 0.25 * rng.standard_normal(5)
    return model


def assert_models_identical(a, b, rng):
    assert a.loss == b.loss
    assert len(a.layers) == len(b.layers)
    pa, pb = a.trainable_params(), b.trainable_params()
    assert set(pa) == set(pb)
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name
    x = rng.standard_normal((a.input_dim, 5))
    ya, _ = a.forward(x)
    yb, _ = b.forward(x)
    assert np.array_equal(ya, yb)


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, rng):
        model = sample_model()
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert_models_identical(model, loaded, rng)
        ad, bd = model.adapters()[0], loaded.adapters()[0]
        assert (ad.id, ad.r_init, ad.r_max, ad.alpha) == \
            (bd.id, bd.r_init, bd.r_max, bd.alpha)
        assert np.array_equal(ad.base_w, bd.base_w)

    def test_loaded_layers_share_adapter_base(self):
        loaded = parse_checkpoint_lines(checkpoint_lines(sample_model()))
        layer = loaded.layers[0]
        assert layer.base_w is layer.adapter.base_w

    def test_survives_awkward_floats(self, tmp_path, rng):
        model = sample_model()
        a = model.adapters()[0]
        a.lam[0] = 1e-300
        a.p[0, 0] = -1.2345678901234567e200
        a.q[0, 0] = 5e-324
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert_models_identical(model, loaded, rng)

    def test_round_trip_after_rank_surgery(self, tmp_path, rng):
        model = sample_model()
        a = model.adapters()[0]
        a.expand_rank(InitStrategy("zero_impact"), rng)
        a.expand_rank(InitStrategy("small_init"), rng)
        a.prune_rank()
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.adapters()[0].rank == a.rank
        assert_models_identical(model, loaded, rng)

    def test_biasless_model(self, tmp_path, rng):
        model = sample_model(bias=False)
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.layers[0].bias is None
        assert_models_identical(model, loaded, rng)

    def test_serialization_is_deterministic(self):
        assert checkpoint_lines(sample_model()) == \
            checkpoint_lines(sample_model())

    def test_adapter_record_shape(self):
        a = sample_model().adapters()[0]
        lines = adapter_record_lines(a)
        assert lines[0] == "adapter enc"
        assert lines[1] == "dims 5 6"
        assert lines[2] == "rank 2"
        assert lines[5] == "alpha 8.0"
        assert "P" in lines and "lambda" in lines and "Q" in lines


class TestParseErrors:
    def lines(self):
        return checkpoint_lines(sample_model())

    def test_not_a_checkpoint(self):
        with pytest.raises(ParseError, match="not a checkpoint"):
            parse_checkpoint_lines(["something else"])

    def test_unsupported_version(self):
        lines = self.lines()
        lines[0] = "rankflex-checkpoint 99"
        with pytest.raises(ParseError, match="unsupported version"):
            parse_checkpoint_lines(lines)

    def test_missing_loss_line(self):
        lines = self.lines()
        del lines[1]
        with pytest.raises(ParseError, match="expected loss line"):
            parse_checkpoint_lines(lines)

    def test_truncated_file(self):
        lines = self.lines()
        with pytest.raises(ParseError, match="unexpected end|truncated"):
            parse_checkpoint_lines(lines[: len(lines) // 2])

    def test_corrupt_matrix_entry(self):
        lines = self.lines()
        base_at = lines.index("base") + 1
        row = lines[base_at].split(",")
        row[0] = "abc"
        lines[base_at] = ",".join(row)
        with pytest.raises(ParseError, match="line"):
            parse_checkpoint_lines(lines)

    def test_dim_cross_check(self):
        lines = self.lines()
        for i, ln in enumerate(lines):
            if ln.startswith("dims "):
                lines[i] = "dims 5 7"
                break
        with pytest.raises(ParseError, match="dims"):
            parse_checkpoint_lines(lines)

    def test_rank_cross_check(self):
        lines = self.lines()
        for i, ln in enumerate(lines):
            if ln.startswith("rank "):
                lines[i] = "rank 3"
                break
        with pytest.raises(ParseError, match="P shape|lambda"):
            parse_checkpoint_lines(lines)

    def test_trailing_content(self):
        lines = self.lines() + ["extra junk"]
        with pytest.raises(ParseError, match="trailing content"):
            parse_checkpoint_lines(lines)

    def test_layer_index_mismatch(self):
        lines = self.lines()
        for i, ln in enumerate(lines):
            if ln.startswith("layer 1 "):
                lines[i] = ln.replace("layer 1 ", "layer 2 ", 1)
                break
        with pytest.raises(ParseError, match="expected header for layer 1"):
            parse_checkpoint_lines(lines)

    @pytest.mark.parametrize("old, new", [
        ("rankflex-checkpoint 1", "rankflex-checkpoint x"),
        ("layers 3", "layers x"),
        (" bias=yes ", " bias "),
        ("r_max 4", "r_max 1"),
        ("loss mse", "loss hinge"),
    ], ids=["version", "layer-count", "field-without-equals", "r_max-below-rank",
            "loss"])
    def test_every_malformed_value_is_a_parse_error(self, old, new):
        text = "\n".join(self.lines())
        assert old in text
        with pytest.raises(ParseError) as info:
            parse_checkpoint_lines(text.replace(old, new, 1).split("\n"))
        assert re.fullmatch(r"line \d+: (?!line ).*", str(info.value))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read checkpoint file"):
            load_checkpoint(tmp_path)
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ParseError, match="cannot read checkpoint file"):
            load_checkpoint(path)

    def test_malformed_adapter_header(self):
        lines = self.lines()
        for i, ln in enumerate(lines):
            if ln.startswith("r_init "):
                lines[i] = "r_init"
                break
        with pytest.raises(ParseError, match="malformed adapter header"):
            parse_checkpoint_lines(lines)
