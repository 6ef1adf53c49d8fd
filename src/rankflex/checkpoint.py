"""Plain-text model checkpoints with exact float round-trip.

The format is line-oriented: a version line, the loss kind, the layer count,
then one block per layer. Linear blocks carry the base weight, optional bias,
and optional adapter record (id, dims, ranks, alpha, then P / lambda / Q).
Header and marker lines are text. The writer emits version 2, where each row
of a 2-D matrix (base, P, Q) is one line of base64 over the row's
little-endian float64 bytes, and the vectors bias and lambda are CSV lines
with every float written by ``repr``. Version 1, which wrote the matrices as
``repr`` CSV too, still loads. Either way loading reproduces the saved model
bit for bit, so forward passes match exactly. The CLI streams the lines into
its file, and loading reads the open file line by line, never the whole
text.
"""

from __future__ import annotations

import binascii
from itertools import islice

import numpy as np

from .adapter import SvdAdapter
from .errors import ParseError, numbered_lines, reading
from .linalg import matrix_from_csv_lines, matrix_to_csv_lines
from .model import ACTIVATION_KINDS, LOSS_KINDS, ActivationLayer, LinearLayer, ToyModel

__all__ = [
    "adapter_record_lines",
    "checkpoint_lines",
    "parse_checkpoint_lines",
    "load_checkpoint",
]

FORMAT_NAME = "rankflex-checkpoint"
FORMAT_VERSION = 2
READABLE_VERSIONS = ("1", "2")
_ROW_DTYPE = np.dtype("<f8")


def _matrix_lines(m):
    """One base64 line per row of ``m``, over its little-endian float64 bytes."""
    m = np.ascontiguousarray(m, dtype=_ROW_DTYPE)
    return [binascii.b2a_base64(row.tobytes(), newline=False).decode("ascii") for row in m]


def adapter_record_lines(adapter):
    """Serialize one adapter as its checkpoint block."""
    lines = [
        f"adapter {adapter.id}",
        f"dims {adapter.d_out} {adapter.d_in}",
        f"rank {adapter.rank}",
        f"r_init {adapter.r_init}",
        f"r_max {adapter.r_max}",
        f"alpha {repr(adapter.alpha)}",
        "P",
    ]
    lines += _matrix_lines(adapter.p)
    lines.append("lambda")
    lines += matrix_to_csv_lines(adapter.lam[None, :])
    lines.append("Q")
    lines += _matrix_lines(adapter.q)
    return lines


def checkpoint_lines(model):
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"loss {model.loss}",
        f"layers {len(model.layers)}",
    ]
    for i, layer in enumerate(model.layers):
        if isinstance(layer, ActivationLayer):
            lines.append(f"layer {i} {layer.kind}")
            continue
        has_bias = "yes" if layer.bias is not None else "no"
        has_adapter = "yes" if layer.adapter is not None else "no"
        lines.append(
            f"layer {i} linear in={layer.d_in} out={layer.d_out} "
            f"bias={has_bias} adapter={has_adapter}"
        )
        lines.append("base")
        lines += _matrix_lines(layer.base_w)
        if layer.bias is not None:
            lines.append("bias")
            lines += matrix_to_csv_lines(layer.bias[None, :])
        if layer.adapter is not None:
            lines += adapter_record_lines(layer.adapter)
    return lines


class _Reader:
    """Walks the non-blank lines of an iterable of lines (an open text file
    too); error messages carry source line numbers."""

    def __init__(self, lines):
        self.lines = numbered_lines(lines)
        self.last = 0  # number of the last line read
        self.version = FORMAT_VERSION

    def next(self, expect=None):
        numbered = next(self.lines, None)
        if numbered is None:
            raise ParseError(f"line {self.last + 1}: unexpected end of checkpoint")
        self.last, line = numbered
        if expect is not None and line != expect:
            raise ParseError(f"line {self.last}: expected {expect!r}, got {line!r}")
        return line

    def _take(self, rows, cols, what):
        """The next ``rows`` (line number, line) pairs."""
        if rows < 1 or cols < 1:
            raise ParseError(f"line {self.last}: {what} shape ({rows}, {cols}) is not positive")
        block = list(islice(self.lines, rows))
        if len(block) < rows:
            raise ParseError(f"line {block[0][0] if block else self.last + 1}: {what} truncated")
        self.last = block[-1][0]
        return block

    def _csv(self, rows, cols, what):
        block = self._take(rows, cols, what)
        try:
            m = matrix_from_csv_lines([line for _, line in block])
        except ParseError as exc:
            raise ParseError(f"line {block[0][0]}: {exc}") from None
        if m.shape != (rows, cols):
            raise ParseError(f"line {block[0][0]}: {what} shape {m.shape} != ({rows}, {cols})")
        return m

    def vector(self, size, what):
        """One CSV line of ``size`` values."""
        return self._csv(1, size, what)[0]

    def matrix(self, rows, cols, what):
        """The next ``rows`` lines as a rows-by-cols matrix, in the file's version."""
        if self.version == 1:
            return self._csv(rows, cols, what)
        block = self._take(rows, cols, what)
        width = 4 * -(-8 * cols // 3)  # characters in the base64 of one row
        buf = bytearray()
        for n, line in block:
            try:
                data = binascii.a2b_base64(line)
            except ValueError as exc:  # binascii.Error, or a non-ASCII str
                raise ParseError(f"line {n}: {what} row is not base64 ({exc})") from None
            if len(data) != 8 * cols:
                raise ParseError(f"line {n}: {what} shape ({rows}, {cols}): "
                                 f"row decodes to {len(data)} bytes, not {8 * cols}")
            # a2b_base64 skips characters outside the alphabet and stops at
            # complete padding, so a row of 8*cols bytes is exactly `width`
            # characters long only if it holds nothing else.
            if len(line) != width:
                raise ParseError(f"line {n}: {what} row is not base64 "
                                 f"({len(line)} characters, not {width})")
            buf += data
        m = np.frombuffer(buf, dtype=_ROW_DTYPE).reshape(rows, cols).astype(np.float64, copy=False)
        finite = np.isfinite(m).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ParseError(f"line {block[row][0]}: {what} row has non-finite values")
        return m


def _parse_adapter(reader, shape):
    head = reader.next()
    if not head.startswith("adapter "):
        raise ParseError(f"line {reader.last}: expected adapter block, got {head!r}")
    adapter_id = head.split(" ", 1)[1]

    def values(label, count):
        parts = reader.next().split()
        if parts[0] != label or len(parts) != count + 1:
            raise ParseError(f"line {reader.last}: malformed adapter header: expected "
                             f"{label!r} and {count} value(s), got {' '.join(parts)!r}")
        return parts[1:]

    try:
        d_out, d_in = (int(v) for v in values("dims", 2))
        if (d_out, d_in) != shape:
            raise ParseError(
                f"line {reader.last}: adapter {adapter_id!r} dims {d_out}x{d_in} != layer shape"
            )
        rank, r_init, r_max = (int(values(k, 1)[0]) for k in ("rank", "r_init", "r_max"))
        alpha = float(values("alpha", 1)[0])
    except ParseError:
        raise
    except ValueError:
        raise ParseError(f"line {reader.last}: malformed adapter header") from None
    reader.next("P")
    p = reader.matrix(d_out, rank, "P")
    reader.next("lambda")
    lam = reader.vector(rank, "lambda")
    reader.next("Q")
    q = reader.matrix(rank, d_in, "Q")
    return SvdAdapter(adapter_id, p, lam, q, r_init=r_init, r_max=r_max, alpha=alpha)


def parse_checkpoint_lines(lines):
    """Rebuild a ToyModel from a version 1 or 2 checkpoint, given as any
    iterable of lines (an open text file too); any malformed content raises
    ParseError naming its line (for a model type's own check, the last line
    read)."""
    reader = _Reader(lines)
    try:
        return _parse_model(reader)
    except (ParseError, UnicodeDecodeError):  # a file's bad bytes are its reader's to map
        raise
    except ValueError as exc:  # int()/dict() on bad text, or a model type's own check
        raise ParseError(f"line {reader.last}: {exc}") from None


def _parse_model(reader):
    head = reader.next().split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise ParseError(f"line {reader.last}: not a checkpoint file")
    if head[1] not in READABLE_VERSIONS:
        raise ParseError(f"line {reader.last}: unsupported version {head[1]}")
    reader.version = int(head[1])
    loss_line = reader.next().split()
    if len(loss_line) != 2 or loss_line[0] != "loss":
        raise ParseError(f"line {reader.last}: expected loss line")
    loss = loss_line[1]
    if loss not in LOSS_KINDS:
        raise ParseError(f"line {reader.last}: unknown loss {loss!r}")
    count_line = reader.next().split()
    if len(count_line) != 2 or count_line[0] != "layers":
        raise ParseError(f"line {reader.last}: expected layer count")
    n_layers = int(count_line[1])
    layers = []
    for i in range(n_layers):
        parts = reader.next().split()
        if len(parts) < 3 or parts[0] != "layer" or int(parts[1]) != i:
            raise ParseError(f"line {reader.last}: expected header for layer {i}")
        kind = parts[2]
        if kind in ACTIVATION_KINDS:
            if len(parts) != 3:
                raise ParseError(f"line {reader.last}: {kind} layer header takes no fields")
            layers.append(ActivationLayer(kind))
            continue
        if kind != "linear":
            raise ParseError(f"line {reader.last}: unknown layer kind {kind!r}")
        pairs = [p.split("=", 1) for p in parts[3:]]
        fields = dict(pair for pair in pairs if len(pair) == 2)
        if len(pairs) != 4 or sorted(fields) != ["adapter", "bias", "in", "out"]:
            raise ParseError(f"line {reader.last}: linear layer header needs "
                             "in=, out=, bias= and adapter=, once each")
        d_in, d_out = int(fields["in"]), int(fields["out"])
        bias_flag, adapter_flag = fields["bias"], fields["adapter"]
        if not {bias_flag, adapter_flag} <= {"yes", "no"}:
            raise ParseError(f"line {reader.last}: bias= and adapter= must be yes or no")
        reader.next("base")
        base = reader.matrix(d_out, d_in, "base")
        bias = None
        if bias_flag == "yes":
            reader.next("bias")
            bias = reader.vector(d_out, "bias")
        adapter = _parse_adapter(reader, base.shape) if adapter_flag == "yes" else None
        layers.append(LinearLayer(base, bias=bias, adapter=adapter))
    if (extra := next(reader.lines, None)) is not None:
        raise ParseError(f"line {extra[0]}: trailing content after last layer")
    return ToyModel(layers, loss)


def load_checkpoint(path):
    with reading(path, ParseError, "checkpoint file"), open(path, encoding="utf-8") as fh:
        return parse_checkpoint_lines(fh)
