import binascii
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankflex.adapter import InitStrategy
from rankflex.checkpoint import (
    adapter_record_lines,
    checkpoint_lines,
    load_checkpoint,
    parse_checkpoint_lines,
)
from rankflex.errors import ParseError
from rankflex.model import AdapterSpec, LayerSpec, ToyModel, build_model

# sample_model()'s checkpoint as the version-1 writer produced it.
V1_FIXTURE = Path(__file__).resolve().parent / "data" / "checkpoint_v1.txt"
LINE_ERROR = re.compile(r"line \d+: (?!line ).*")


def v1_lines():
    return V1_FIXTURE.read_text(encoding="utf-8").splitlines()


def sample_model(seed=70, bias=True):
    specs = [
        LayerSpec("linear", d_in=6, d_out=5, bias=bias,
                  adapter=AdapterSpec("enc", 2, 4, alpha=8.0)),
        LayerSpec("relu"),
        LayerSpec("linear", d_in=5, d_out=3, bias=bias),
    ]
    model = build_model(specs, "mse", np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for a in model.adapters():
        a.lam[:] = rng.standard_normal(a.rank)
    if bias:
        model.layers[0].bias[:] = 0.25 * rng.standard_normal(5)
    return model


def save(model, path):
    path.write_text("\n".join(checkpoint_lines(model)) + "\n", encoding="utf-8")


def assert_models_identical(a, b, rng):
    assert a.loss == b.loss
    assert len(a.layers) == len(b.layers)
    pa, pb = a.trainable_params(), b.trainable_params()
    assert set(pa) == set(pb)
    for name in pa:
        assert np.array_equal(pa[name], pb[name]), name
    x = rng.standard_normal((a.layers[0].d_in, 5))
    ya, _ = a.forward(x)
    yb, _ = b.forward(x)
    assert np.array_equal(ya, yb)


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path, rng):
        model = sample_model()
        path = tmp_path / "model.txt"
        save(model, path)
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
        save(model, path)
        loaded = load_checkpoint(path)
        assert_models_identical(model, loaded, rng)

    def test_round_trip_after_rank_surgery(self, tmp_path, rng):
        model = sample_model()
        a = model.adapters()[0]
        a.expand_rank(InitStrategy("zero_impact"), rng)
        a.expand_rank(InitStrategy("small_init"), rng)
        a.prune_rank()
        path = tmp_path / "model.txt"
        save(model, path)
        loaded = load_checkpoint(path)
        assert loaded.adapters()[0].rank == a.rank
        assert_models_identical(model, loaded, rng)

    def test_biasless_model(self, tmp_path, rng):
        model = sample_model(bias=False)
        path = tmp_path / "model.txt"
        save(model, path)
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

    @pytest.mark.parametrize("source, old, new, message", [
        ("v2", "rankflex-checkpoint 2", "rankflex-checkpoint x", "line 1: unsupported version"),
        ("v2", "layers 3", "layers x", "line 3: "),
        ("v2", " bias=yes ", " bias ", "line 4: "),
        ("v2", "r_max 4", "r_max 1", r"line 29: rank 2 outside \[1, r_max=1\]"),
        ("v2", "loss mse", "loss hinge", "line 2: unknown loss"),
        ("v2", "in=6", "in=7", r"line 6: base shape \(5, 7\)"),
        ("v2", "in=6", "in=-1", r"line 5: base shape \(5, -1\)"),
        ("v2", "dims 5 6", "dims 5 7", "line 14: .*dims 5x7"),
        ("v2", "bias\n0.0,0.0,0.0", "bias\n0.0,0.0", "line 37: bias shape"),
        ("v1", "in=6", "in=7", r"line 6: base shape \(5, 6\) != \(5, 7\)"),
        ("v1", "dims 5 6", "dims 5 7", "line 14: .*dims 5x7"),
        ("v1", "rank 2", "rank 1", r"line 20: P shape \(5, 2\) != \(5, 1\)"),
        ("v1", "lambda\n0.04872092360793993,", "lambda\n", "line 26: lambda shape"),
        ("v1", "Q\n-0.0006957489458357208,", "Q\n", "line 28: row 1: expected 5 columns"),
        # Each adapter header line must carry its own label and value count,
        # and a layer header's flags must be yes or no.
        ("v2", "dims 5 6", "dimz 5 6", "line 14: malformed adapter header: expected 'dims'"),
        ("v2", "dims 5 6", "dims 5 6 7", "line 14: malformed adapter header: expected 'dims'"),
        ("v2", "rank 2", "rnak 2", "line 15: malformed adapter header: expected 'rank'"),
        ("v2", "r_init 2", "r_max 2", "line 16: malformed adapter header: expected 'r_init'"),
        ("v2", "r_max 4", "r_max 4 4", "line 17: malformed adapter header: expected 'r_max'"),
        ("v2", "alpha 8.0", "beta 16.0", "line 18: malformed adapter header: expected 'alpha'"),
        ("v2", "bias=yes", "bias=maybe", "line 4: bias= and adapter= must be yes or no"),
        ("v2", "adapter=yes", "adapter=maybe", "line 4: bias= and adapter= must be yes or no"),
        ("v1", "dims 5 6", "dimz 5 6", "line 14: malformed adapter header: expected 'dims'"),
        ("v1", "r_init 2", "r_max 2", "line 16: malformed adapter header: expected 'r_init'"),
        ("v1", "alpha 8.0", "beta 16.0", "line 18: malformed adapter header: expected 'alpha'"),
        ("v1", "bias=yes", "bias=maybe", "line 4: bias= and adapter= must be yes or no"),
    ], ids=["version", "layer-count", "field-without-equals", "r_max-below-rank",
            "loss", "base-cols", "base-cols-negative", "adapter-dims", "bias-length",
            "v1-base-cols", "v1-adapter-dims", "v1-rank", "v1-lambda-length", "v1-Q-row",
            "dims-label", "dims-count", "rank-label", "r_init-label", "r_max-count",
            "alpha-label", "bias-flag", "adapter-flag", "v1-dims-label", "v1-r_init-label",
            "v1-alpha-label", "v1-bias-flag"])
    def test_every_malformed_value_is_a_parse_error(self, source, old, new, message):
        text = "\n".join(v1_lines() if source == "v1" else self.lines())
        assert old in text
        with pytest.raises(ParseError) as info:
            parse_checkpoint_lines(text.replace(old, new, 1).split("\n"))
        assert LINE_ERROR.fullmatch(str(info.value))
        assert re.match(message, str(info.value)), str(info.value)

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


class TestVersion1:
    def test_fixture_is_version_1(self):
        assert v1_lines()[0] == "rankflex-checkpoint 1"
        assert checkpoint_lines(sample_model())[0] == "rankflex-checkpoint 2"

    def test_fixture_loads_bitwise_equal(self, rng):
        model = sample_model()
        from_v1 = load_checkpoint(V1_FIXTURE)
        from_v2 = parse_checkpoint_lines(checkpoint_lines(model))
        for loaded in (from_v1, from_v2):
            assert_models_identical(model, loaded, rng)
            for name, value in model.trainable_params().items():
                assert np.array_equal(value.view(np.uint64),
                                      loaded.trainable_params()[name].view(np.uint64)), name
            for la, lb in zip(model.layers, loaded.layers):
                if hasattr(la, "base_w"):
                    assert np.array_equal(la.base_w.view(np.uint64), lb.base_w.view(np.uint64))
                    assert np.array_equal(la.bias.view(np.uint64), lb.bias.view(np.uint64))
        assert checkpoint_lines(from_v1) == checkpoint_lines(model)

    def test_version_3_is_unsupported(self):
        lines = checkpoint_lines(sample_model())
        lines[0] = "rankflex-checkpoint 3"
        with pytest.raises(ParseError, match="^line 1: unsupported version 3$"):
            parse_checkpoint_lines(lines)

    def test_blank_lines_keep_line_numbers(self):
        lines = v1_lines()
        at = lines.index("P") + 1
        lines[at] = "abc," + lines[at].split(",", 1)[1]
        lines[1:1] = ["", "   "]
        with pytest.raises(ParseError, match=rf"^line {at + 3}: "):
            parse_checkpoint_lines(lines)


def _encode(values):
    return binascii.b2a_base64(np.asarray(values, "<f8").tobytes(), newline=False).decode()


def _decode(line):
    return np.frombuffer(binascii.a2b_base64(line), "<f8")


class TestPayloadErrors:
    """Each corrupt version-2 matrix row is a ParseError naming that row."""

    def row(self, marker, offset=0):
        lines = checkpoint_lines(sample_model())
        return lines, lines.index(marker) + 1 + offset

    @pytest.mark.parametrize("edit, message", [
        (lambda ln: ln[:3] + "!" + ln[4:], "not base64"),
        (lambda ln: ln[:8] + " " + ln[8:], "not base64"),
        (lambda ln: ln[:8] + "\u00e9" + ln[9:], "not base64"),
        (lambda ln: ln[:-4], "not base64|bytes"),
        (lambda ln: ln + "=", "not base64"),
        (lambda ln: ln[:8] + "==" + ln[8:], "not base64"),
        (lambda ln: _encode(_decode(ln)[:-1]), "row decodes to 40 bytes, not 48"),
        (lambda ln: _encode(np.append(_decode(ln), 1.0)), "row decodes to 56 bytes, not 48"),
        (lambda ln: _encode(np.append(_decode(ln)[:-1], np.nan)), "non-finite"),
        (lambda ln: _encode(np.append(_decode(ln)[:-1], np.inf)), "non-finite"),
        (lambda ln: _encode(np.append(-np.inf, _decode(ln)[1:])), "non-finite"),
    ], ids=["bad-char", "space", "non-ascii", "cut", "excess-padding", "inner-padding",
            "value-short", "value-long", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("marker, offset", [("base", 3), ("Q", 1)])
    def test_corrupt_row(self, marker, offset, edit, message):
        lines, at = self.row(marker, offset)
        lines[at] = edit(lines[at])
        with pytest.raises(ParseError, match=rf"^line {at + 1}: .*({message})"):
            parse_checkpoint_lines(lines)

    @pytest.mark.parametrize("marker, rows", [("base", 5), ("P", 5), ("Q", 2)])
    def test_missing_last_row(self, marker, rows):
        lines, at = self.row(marker)
        del lines[at + rows - 1]
        with pytest.raises(ParseError, match=rf"^line {at + rows}: "):
            parse_checkpoint_lines(lines)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="strict_mode is new in Python 3.11")
    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                                    st.integers(0, 23), st.sampled_from("A/+=9 !\u00e9")),
                          min_size=1, max_size=3))
    def test_accepted_rows_are_strict_base64(self, edits):
        lines, at = self.row("P")
        row = lines[at]
        for kind, k, c in edits:
            row = row[:k] + ("" if kind == "delete" else c) + row[k + (kind != "insert"):]
        lines[at] = row
        try:
            model = parse_checkpoint_lines(lines)
        except ParseError as exc:
            assert str(exc).startswith(f"line {at + 1}: P ")
        else:
            assert binascii.a2b_base64(row, strict_mode=True) == model.adapters()[0].p[0].tobytes()

    def test_short_row_names_the_matrix_shape(self):
        model = sample_model()
        lines = checkpoint_lines(model)
        at = lines.index("P") + 1
        assert len(_decode(lines[at])) == model.adapters()[0].rank
        lines[at] = _encode(_decode(lines[at])[:1])
        with pytest.raises(ParseError, match=rf"^line {at + 1}: P shape \(5, 2\)"):
            parse_checkpoint_lines(lines)


_TOKENS = ["", "0", "1", "2", "-1", "99999999999", "1e999", "nan", "x", "yes", "no",
           "=", "P", "Q", "lambda", "base", "bias", "linear", "relu", "AAAAAAAAAAA="]


@st.composite
def mutated_checkpoint(draw):
    lines = draw(st.sampled_from([checkpoint_lines(sample_model()), v1_lines()])).copy()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "token", "char",
                                     "truncate"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "token":
            tokens = re.split(r"([ ,=])", lines[i])
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(_TOKENS + tokens))
            lines[i] = "".join(tokens)
        elif kind == "char" and lines[i]:
            k = draw(st.integers(0, len(lines[i]) - 1))
            c = draw(st.sampled_from("A/+=9-. e\u00e9,"))
            lines[i] = lines[i][:k] + c + lines[i][k + 1:]
        elif kind == "truncate":
            lines = lines[:i] + [lines[i][:draw(st.integers(0, len(lines[i])))]]
    return lines


class TestFuzz:
    """Any mutation of a valid checkpoint loads or is a ParseError naming a line."""

    @settings(max_examples=600, deadline=None)
    @given(lines=mutated_checkpoint())
    def test_mutated_checkpoints(self, lines):
        try:
            model = parse_checkpoint_lines(lines)
        except ParseError as exc:
            assert LINE_ERROR.fullmatch(str(exc)), str(exc)
        else:
            assert isinstance(model, ToyModel)
