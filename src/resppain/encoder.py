"""Cross-attention latent encoder for 1-D physiological signals.

A fixed array of learnable latent vectors (N x d) queries the signal:
samples become Fourier-featurized tokens, (T, c), and the latents attend
to all of them at once through one single-head cross-attention layer.
Its keys and values are maps of the normed tokens into model width, but
they are never built: the scores and the value mix contract through the
c wide normed tokens themselves (see `attention`).  So the per-token
cost is O(N c), not O(N d + c d).  Optional
self-attention layers mix the latents after each cross-attention, and a
gated feed-forward block follows every attention module.  Mean-pooling
the final latents plus a learned linear projection yields one embedding
per input signal, independent of the signal's length.  `encode` takes all
of one sample's signals in one call, since the latent half of the first
cross-attention's scores reads no signal: it is computed once per call.

All attention blocks are pre-layer-norm with residual connections;
dropout acts on each attention output and on each FFN's gated hidden
activation, in training only: an rng means training, None means inference.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import math
import struct
import typing
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .numerics import Tensor

# The six standard (depth, cross_per_block, self_per_block) layouts, in
# ascending cost order.
STANDARD_GRID = ((1, 1, 0), (2, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2))

EMBED_DIM = 512


@dataclass(frozen=True)
class EncoderConfig:
    depth: int = 1
    cross_per_block: int = 1
    self_per_block: int = 0
    n_latents: int = 256
    model_dim: int = 512
    fourier_bands: int = 6
    max_freq_hz: float = 10.0
    ffn_expansion: int = 4
    dropout: float = 0.1
    out_dim: int = EMBED_DIM

    def __post_init__(self):
        if self.depth < 1 or self.cross_per_block < 1 or self.self_per_block < 0:
            raise ValueError(f"need depth >= 1, cross >= 1, self >= 0; "
                             f"got ({self.depth}, {self.cross_per_block}, {self.self_per_block})")
        if min(self.n_latents, self.model_dim, self.fourier_bands, self.ffn_expansion, self.out_dim) < 1:
            raise ValueError("n_latents, model_dim, fourier_bands, ffn_expansion, out_dim must be >= 1")
        if not (math.isfinite(self.max_freq_hz) and self.max_freq_hz > 0):
            raise ValueError(f"max_freq_hz must be finite and positive, got {self.max_freq_hz}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must satisfy 0 <= rate < 1, got {self.dropout}")

    @property
    def token_dim(self) -> int:
        """Raw value + K sin + K cos + normalized position."""
        return 1 + 2 * self.fourier_bands + 1

    def layout(self) -> tuple[int, int, int]:
        return (self.depth, self.cross_per_block, self.self_per_block)


# ---------------------------------------------------------------------------
# tokenization

@functools.lru_cache(maxsize=16)
def _fourier_columns(t: int, n_bands: int, max_freq: float) -> np.ndarray:
    """The (t, 2*n_bands + 1) sin, cos and position columns, computed once and frozen."""
    p = np.linspace(-1.0, 1.0, t)   # a single sample sits at -1
    freqs = np.geomspace(1.0, max_freq, n_bands)
    phase = np.pi * p[:, None] * freqs[None, :]
    cols = np.concatenate([np.sin(phase), np.cos(phase), p[:, None]], axis=1)
    cols.flags.writeable = False
    return cols


def fourier_encode(x: np.ndarray, n_bands: int, max_freq: float) -> np.ndarray:
    """Signal (T,) -> token matrix (T, 1 + 2*n_bands + 1).

    Columns: raw sample value, sin(pi f_k p) and cos(pi f_k p) for the
    n_bands frequencies f_k geometrically spaced in [1, max_freq], and the
    normalized position p itself.  p runs linearly over [-1, 1]; a single
    sample sits at p = -1.

    Every column but the first depends only on (T, n_bands, max_freq), so
    those columns are computed once per such key and kept, read-only, in
    a small LRU cache.  A hit holds exactly what a fresh computation for
    the same key would give, so no entry can go stale, and each call
    still returns a new array the caller may write to.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise nm.ShapeError(f"fourier_encode expects a non-empty vector, got shape {x.shape}")
    return np.concatenate([x[:, None], _fourier_columns(x.size, n_bands, max_freq)], axis=1)


# ---------------------------------------------------------------------------
# parameters

# Every parameter is declared once, as a (name, shape, init rule) row in init order:
# `draw_params` draws the rows and `training.load_pipeline` checks a file against them.
ParamRow = tuple[str, tuple[int, ...], str]

_INIT_RULES = {
    "normal": lambda rng, shape: rng.normal(0.0, 0.02, shape),
    "uniform": lambda rng, shape: rng.uniform(-1.0 / np.sqrt(shape[0]), 1.0 / np.sqrt(shape[0]), shape),
    "zeros": lambda rng, shape: np.zeros(shape),
    "ones": lambda rng, shape: np.ones(shape),
}


def draw_params(rows: Iterable[ParamRow], rng: np.random.Generator,
                dtype=nm.DEFAULT_DTYPE) -> dict[str, Tensor]:
    """One parameter per row, drawn in row order by its init rule: latents from
    N(0, 0.02), linear weights from the fan-in scaled uniform U(-1/sqrt(fan_in),
    1/sqrt(fan_in)), biases at zero and norm gains at one."""
    return {name: nm.parameter(_INIT_RULES[init](rng, shape), dtype=dtype) for name, shape, init in rows}


def linear_rows(prefix: str, fan_in: int, fan_out: int) -> list[ParamRow]:
    return [(f"{prefix}.w", (fan_in, fan_out), "uniform"), (f"{prefix}.b", (fan_out,), "zeros")]


def _norm_rows(prefix: str, dim: int) -> list[ParamRow]:
    return [(f"{prefix}.g", (dim,), "ones"), (f"{prefix}.b", (dim,), "zeros")]


def _attention_rows(prefix: str, kv_dim: int, d: int) -> list[ParamRow]:
    return (_norm_rows(f"{prefix}.ln_q", d) + _norm_rows(f"{prefix}.ln_kv", kv_dim)
            + linear_rows(f"{prefix}.wq", d, d) + [(f"{prefix}.wk.w", (kv_dim, d), "uniform")]
            + linear_rows(f"{prefix}.wv", kv_dim, d) + linear_rows(f"{prefix}.wo", d, d))


def _ffn_rows(prefix: str, d: int, e: int) -> list[ParamRow]:
    return (_norm_rows(f"{prefix}.ln", d) + linear_rows(f"{prefix}.wu", d, e * d)
            + linear_rows(f"{prefix}.wg", d, e * d) + linear_rows(f"{prefix}.wo", e * d, d))


def _units(cfg: EncoderConfig) -> Iterator[tuple[str, bool]]:
    """(key prefix, is cross-attention) of each attention + FFN unit in forward order: per block,
    each cross-attention unit, then its self-attention units.  The first is block0.cross0."""
    for b in range(cfg.depth):
        for c in range(cfg.cross_per_block):
            yield f"block{b}.cross{c}", True
            for s in range(cfg.self_per_block):
                yield f"block{b}.cross{c}.self{s}", False


def encoder_param_rows(cfg: EncoderConfig) -> Iterator[ParamRow]:
    """The encoder's rows in key order, lazily: reading the first k costs O(k), whatever the depth."""
    d, e = cfg.model_dim, cfg.ffn_expansion
    yield ("latents", (cfg.n_latents, d), "normal")
    for prefix, cross in _units(cfg):
        yield from (_attention_rows(f"{prefix}.attn", cfg.token_dim if cross else d, d)
                    + _ffn_rows(f"{prefix}.ffn", d, e))
    yield from linear_rows("proj", d, cfg.out_dim)


def _affine(x: Tensor, params: dict, prefix: str) -> Tensor:
    return nm.matmul(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def _norm(x: Tensor, params: dict, prefix: str) -> Tensor:
    return nm.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


# ---------------------------------------------------------------------------
# blocks

def _score_query(latents: Tensor, params: dict, prefix: str) -> Tensor:
    """(q wk.w^T) / sqrt(d) with q = wq(ln_q(latents)): the latent half of
    the attention scores, (n, c)."""
    q = _affine(_norm(latents, params, f"{prefix}.ln_q"), params, f"{prefix}.wq")
    return nm.scale(nm.matmul(q, nm.transpose(params[f"{prefix}.wk.w"])), 1.0 / np.sqrt(latents.shape[1]))


def attention(latents: Tensor, context: Tensor, params: dict, prefix: str,
              dropout: float, rng: np.random.Generator | None, query: Tensor | None = None) -> Tensor:
    """Single-head attention of latents over context, residual output.

    Computes wo(softmax(Q K^T / sqrt(d)) V) with Q = wq(ln_q(latents)),
    K = kn wk.w, V = wv(kn) and kn = ln_kv(context), (T, c), but never
    builds K or V: by associativity it contracts through kn instead,

        scores = ((Q wk.w^T) / sqrt(d)) kn^T     mix = (weights kn) wv.w + wv.b

    The key has no bias, since it would shift each latent's scores by one
    constant, which softmax ignores; the value bias is added after the
    mix, since each row of weights sums to 1.  No array of the forward
    pass or its tape is (T, d), so cross-attention costs O(n T c)
    besides its fixed O(n d^2) latent work; self-attention (c = d,
    T = n) does the same FLOPs as the K/V form.  Given an rng, dropout
    acts on the (n, d) output before the residual add.  Cross-attention
    passes the token matrix as context; self-attention passes the latents
    themselves.  A given `query` is used in place of the scores' latent
    half (Q wk.w^T) / sqrt(d) and must be exactly that: `encode` computes
    the first unit's once per call and passes it to that unit for every
    signal.
    """
    a = _score_query(latents, params, prefix) if query is None else query
    kn = _norm(context, params, f"{prefix}.ln_kv")
    weights = nm.softmax_rows(nm.matmul(a, nm.transpose(kn)))
    mixed = _affine(nm.matmul(weights, kn), params, f"{prefix}.wv")
    mixed = nm.dropout(_affine(mixed, params, f"{prefix}.wo"), dropout, rng)
    return nm.add(latents, mixed)


def gated_ffn(x: Tensor, params: dict, prefix: str,
              dropout: float, rng: np.random.Generator | None) -> Tensor:
    """Pre-norm gated feed-forward with residual: x + Wo(dropout(u * gelu(g), rng))."""
    h = _norm(x, params, f"{prefix}.ln")
    u = _affine(h, params, f"{prefix}.wu")
    g = _affine(h, params, f"{prefix}.wg")
    hidden = nm.mul(u, nm.gelu(g))
    hidden = nm.dropout(hidden, dropout, rng)
    return nm.add(x, _affine(hidden, params, f"{prefix}.wo"))


def encode(signals: Sequence[np.ndarray], cfg: EncoderConfig, params: dict[str, Tensor],
           rng: np.random.Generator | None = None) -> list[Tensor]:
    """One sample's signals, each (T_i,) -> their embeddings, each (out_dim,), in order.

    An rng means training, with dropout drawn from it in signal order; None
    means inference.  The signals run one after another through the same
    ops, so an embedding never depends on what else shares the call.  The
    latent half of the first cross-attention's scores, (Q wk.w^T) / sqrt(d),
    reads no signal, so it is computed once per call and shared by all of
    them.
    """
    dtype = params["latents"].dtype
    first = _score_query(params["latents"], params, "block0.cross0.attn")
    embeddings = []
    for signal in signals:
        tokens = nm.constant(fourier_encode(signal, cfg.fourier_bands, cfg.max_freq_hz), dtype=dtype)
        lat, query = params["latents"], first
        for prefix, cross in _units(cfg):
            lat = attention(lat, tokens if cross else lat, params, f"{prefix}.attn", cfg.dropout, rng, query=query)
            lat = gated_ffn(lat, params, f"{prefix}.ffn", cfg.dropout, rng)
            query = None   # only the first unit, block0.cross0, takes it
        embeddings.append(_affine(nm.mean_axis0(lat), params, "proj"))
    return embeddings


# ---------------------------------------------------------------------------
# checkpoint format
#
# Little-endian binary container:
#   magic "RPCK", format version u32
#   header: one value per entry of the caller's `kinds`, in order; a dataclass
#       is its fields in declaration order, each by its declared type: int u32,
#       float f64, bool u8 (0 or 1), str u16 length + utf8
#   tensors: u32 count, then per tensor name (u16 length + utf8), ndim u8,
#       each dim u32, values float32 row-major

CHECKPOINT_MAGIC = b"RPCK"
CHECKPOINT_VERSION = 3

_SCALARS = {int: "<I", float: "<d", bool: "<B"}   # the struct format of each scalar type


class CheckpointError(RuntimeError):
    """Unreadable or structurally invalid checkpoint file."""


def _write_str(buf: io.BytesIO, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointError(f"string too long for checkpoint field: {len(raw)} bytes")
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


def _write_value(buf: io.BytesIO, kind: type, value) -> None:
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        for f in dataclasses.fields(kind):
            _write_value(buf, hints[f.name], getattr(value, f.name))
    elif kind is str:
        _write_str(buf, value)
    else:
        buf.write(struct.pack(_SCALARS[kind], value))


def save_checkpoint(path: str | Path, kinds: tuple[type, ...], header: tuple,
                    params: dict[str, Tensor]) -> None:
    """Serialize header values, each written as its entry of `kinds`, plus named tensors."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    for kind, value in zip(kinds, header, strict=True):
        _write_value(buf, kind, value)
    buf.write(struct.pack("<I", len(params)))
    for name, tensor in params.items():
        _write_str(buf, name)
        arr = np.ascontiguousarray(tensor.data, dtype="<f4")
        buf.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(arr.tobytes())
    Path(path).write_bytes(buf.getvalue())


class _Reader:
    """Sequential reads over the file bytes; `take` returns views, not copies."""

    def __init__(self, raw: bytes, path: Path):
        self.raw, self.off, self.path = memoryview(raw), 0, path

    def take(self, n: int) -> memoryview:
        if self.off + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint "
                                  f"(wanted {n} bytes at offset {self.off}, have {len(self.raw)})")
        chunk = self.raw[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<H")
        at = self.off
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{self.path}: string at offset {at} is not UTF-8: {e}") from e

    def read_value(self, kind: type, name: str):
        """One value of `kind`; a dataclass is built from its fields, so its own checks apply."""
        if dataclasses.is_dataclass(kind):
            hints = typing.get_type_hints(kind)
            fields = {f.name: self.read_value(hints[f.name], f.name) for f in dataclasses.fields(kind)}
            try:
                return kind(**fields)
            except ValueError as e:
                raise CheckpointError(f"{self.path}: invalid {name} in header: {e}") from e
        if kind is str:
            return self.read_str()
        at = self.off
        (value,) = self.unpack(_SCALARS[kind])
        if kind is bool and value not in (0, 1):
            raise CheckpointError(f"{self.path}: bool {name} at offset {at} holds {value}, not 0 or 1")
        return kind(value)


def load_checkpoint(path: str | Path, kinds: tuple[type, ...]) -> tuple[list, dict[str, np.ndarray]]:
    """Inverse of save_checkpoint for the same `kinds`; bit-exact for float32 tensor data.
    A tensor holding a NaN or an infinity is refused."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    r = _Reader(raw, path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    header = [r.read_value(kind, kind.__name__) for kind in kinds]
    params: dict[str, np.ndarray] = {}
    (n_tensors,) = r.unpack("<I")
    for _ in range(n_tensors):
        name = r.read_str()
        if name in params:   # a later copy must not silently replace the first
            raise CheckpointError(f"{path}: tensor {name!r} appears more than once")
        (ndim,) = r.unpack("<B")
        shape = tuple(r.unpack(f"<{ndim}I")) if ndim else ()
        # an exact product: a corrupt shape must not wrap around int64
        chunk = r.take(4 * math.prod(shape))
        try:
            data = np.frombuffer(chunk, dtype="<f4").reshape(shape)
        except ValueError as e:   # an empty tensor whose other dims overflow
            raise CheckpointError(f"{path}: tensor {name!r} has unusable shape {shape}: {e}") from e
        bad = data.size - np.count_nonzero(np.isfinite(data))
        if bad:   # a NaN or inf weight would only show as a nan loss and constant predictions
            raise CheckpointError(f"{path}: tensor {name!r} holds {bad} non-finite value(s)")
        params[name] = np.ascontiguousarray(data, dtype=np.float32)
    if r.off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - r.off} trailing bytes after checkpoint payload")
    return header, params
