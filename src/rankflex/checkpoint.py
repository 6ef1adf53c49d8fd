"""Plain-text model checkpoints with exact float round-trip.

The format is line-oriented: a version line, the loss kind, the layer count,
then one block per layer. Linear blocks carry the base weight, optional bias,
and optional adapter record (id, dims, ranks, alpha, then P / lambda / Q as
CSV). Every float is written with ``repr``, so loading reproduces the saved
model bit for bit and forward passes match exactly.
"""

from __future__ import annotations

from .adapter import SvdAdapter
from .errors import ParseError, read_text
from .linalg import matrix_from_csv_lines, matrix_to_csv_lines
from .model import LOSS_KINDS, ActivationLayer, LinearLayer, ToyModel

__all__ = [
    "adapter_record_lines",
    "checkpoint_lines",
    "parse_checkpoint_lines",
    "save_checkpoint",
    "load_checkpoint",
]

FORMAT_NAME = "rankflex-checkpoint"
FORMAT_VERSION = 1


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
    lines += matrix_to_csv_lines(adapter.p)
    lines.append("lambda")
    lines += matrix_to_csv_lines(adapter.lam[None, :])
    lines.append("Q")
    lines += matrix_to_csv_lines(adapter.q)
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
        lines += matrix_to_csv_lines(layer.base_w)
        if layer.bias is not None:
            lines.append("bias")
            lines += matrix_to_csv_lines(layer.bias[None, :])
        if layer.adapter is not None:
            lines += adapter_record_lines(layer.adapter)
    return lines


class _Reader:
    def __init__(self, lines):
        self.lines = lines
        self.pos = 0

    def next(self, expect=None):
        if self.pos >= len(self.lines):
            raise ParseError(f"line {self.pos + 1}: unexpected end of checkpoint")
        line = self.lines[self.pos].rstrip("\n")
        self.pos += 1
        if expect is not None and line != expect:
            raise ParseError(f"line {self.pos}: expected {expect!r}, got {line!r}")
        return line

    def matrix(self, rows):
        start = self.pos
        if self.pos + rows > len(self.lines):
            raise ParseError(f"line {start + 1}: matrix truncated")
        block = self.lines[self.pos : self.pos + rows]
        self.pos += rows
        try:
            return matrix_from_csv_lines(block)
        except ParseError as exc:
            raise ParseError(f"line {start + 1}: {exc}") from None


def _parse_adapter(reader, base_w):
    head = reader.next()
    if not head.startswith("adapter "):
        raise ParseError(f"line {reader.pos}: expected adapter block, got {head!r}")
    adapter_id = head.split(" ", 1)[1]
    try:
        _, d_out_s, d_in_s = reader.next().split()
        d_out, d_in = int(d_out_s), int(d_in_s)
        rank = int(reader.next().split()[1])
        r_init = int(reader.next().split()[1])
        r_max = int(reader.next().split()[1])
        alpha = float(reader.next().split()[1])
    except (ValueError, IndexError):
        raise ParseError(f"line {reader.pos}: malformed adapter header") from None
    if (d_out, d_in) != base_w.shape:
        raise ParseError(f"adapter {adapter_id!r} dims {d_out}x{d_in} != layer shape")
    reader.next("P")
    p = reader.matrix(d_out)
    if p.shape != (d_out, rank):
        raise ParseError(f"adapter {adapter_id!r}: P shape {p.shape} != ({d_out}, {rank})")
    reader.next("lambda")
    lam = reader.matrix(1)[0]
    if lam.size != rank:
        raise ParseError(f"adapter {adapter_id!r}: lambda length {lam.size} != rank {rank}")
    reader.next("Q")
    q = reader.matrix(rank)
    if q.shape != (rank, d_in):
        raise ParseError(f"adapter {adapter_id!r}: Q shape {q.shape} != ({rank}, {d_in})")
    return SvdAdapter(adapter_id, base_w, p, lam, q, r_init=r_init, r_max=r_max, alpha=alpha)


def parse_checkpoint_lines(lines):
    """Rebuild a ToyModel; any malformed content raises ParseError naming the
    last line read (for a check across layers, the checkpoint's last line)."""
    reader = _Reader([ln for ln in lines if ln.strip()])
    try:
        return _parse_model(reader)
    except ParseError:
        raise
    except ValueError as exc:  # int()/dict() on bad text, or a model type's own check
        raise ParseError(f"line {reader.pos}: {exc}") from None


def _parse_model(reader):
    head = reader.next().split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise ParseError("line 1: not a checkpoint file")
    if int(head[1]) != FORMAT_VERSION:
        raise ParseError(f"line 1: unsupported version {head[1]}")
    loss_line = reader.next().split()
    if len(loss_line) != 2 or loss_line[0] != "loss":
        raise ParseError(f"line {reader.pos}: expected loss line")
    loss = loss_line[1]
    if loss not in LOSS_KINDS:
        raise ParseError(f"line {reader.pos}: unknown loss {loss!r}")
    count_line = reader.next().split()
    if len(count_line) != 2 or count_line[0] != "layers":
        raise ParseError(f"line {reader.pos}: expected layer count")
    n_layers = int(count_line[1])
    layers = []
    for i in range(n_layers):
        parts = reader.next().split()
        if len(parts) < 3 or parts[0] != "layer" or int(parts[1]) != i:
            raise ParseError(f"line {reader.pos}: expected header for layer {i}")
        kind = parts[2]
        if kind in ("tanh", "relu"):
            layers.append(ActivationLayer(kind))
            continue
        if kind != "linear":
            raise ParseError(f"line {reader.pos}: unknown layer kind {kind!r}")
        fields = dict(p.split("=", 1) for p in parts[3:])
        try:
            d_in = int(fields["in"])
            d_out = int(fields["out"])
            has_bias = fields["bias"] == "yes"
            has_adapter = fields["adapter"] == "yes"
        except KeyError as exc:
            raise ParseError(f"line {reader.pos}: layer header missing {exc}") from None
        reader.next("base")
        base = reader.matrix(d_out)
        if base.shape != (d_out, d_in):
            raise ParseError(f"layer {i}: base shape {base.shape} != ({d_out}, {d_in})")
        bias = None
        if has_bias:
            reader.next("bias")
            bias = reader.matrix(1)[0]
            if bias.size != d_out:
                raise ParseError(f"layer {i}: bias length {bias.size} != {d_out}")
        adapter = _parse_adapter(reader, base) if has_adapter else None
        layers.append(LinearLayer(base, bias=bias, adapter=adapter))
    if reader.pos != len(reader.lines):
        raise ParseError(f"line {reader.pos + 1}: trailing content after last layer")
    return ToyModel(layers, loss)


def save_checkpoint(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(checkpoint_lines(model)) + "\n")


def load_checkpoint(path):
    return parse_checkpoint_lines(read_text(path, ParseError, "checkpoint file").splitlines())
