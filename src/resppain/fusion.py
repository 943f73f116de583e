"""Multi-window representation fusion and the hard gate over logit routes.

One shared encoder emits an embedding per window plus one for the full
signal, and `classify` takes both.  It fuses the window embeddings two
ways -- elementwise sum and ordered concatenation -- and each fused view
plus the full-signal view feeds its own linear head.  A fourth route
averages the three logit vectors.  The default variant routes between the
four with a learnable hard Gumbel-Softmax gate: given an rng (training)
one route is sampled as a one-hot (straight-through gradients keep the
gate trainable); given None (inference) the argmax route is taken
deterministically, nothing sampled.

Each fusion variant is one `VARIANT_SPECS` entry (its heads and their
input views, plus a combiner); the parameter declaration, init, forward
and `cost`'s parameter and FLOP counts all read that table.

Route order everywhere: (add, concat, full, avg).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .encoder import ParamRow, linear_rows
from .numerics import Tensor

N_ROUTES = 4


@dataclass(frozen=True)
class VariantSpec:
    """One fusion variant: linear heads over the fused views, then a combiner.

    heads: (parameter prefix, input views) in init order, views drawn from
    "add", "concat" and "full"; a head over several views reads their
    concatenation.  combiner: "gate" (hard Gumbel gate over the heads and
    their mean), "mean" (the heads' mean), "coef" (learned sigmoid blend of
    two heads) or "single" (the one head's logits).
    """

    heads: tuple[tuple[str, tuple[str, ...]], ...]
    combiner: str

    def head_widths(self, n_windows: int, embed_dim: int) -> list[tuple[str, int]]:
        """(prefix, input width) per head: the concat view is n_windows embeddings wide."""
        widths = {"add": embed_dim, "concat": n_windows * embed_dim, "full": embed_dim}
        return [(name, sum(widths[v] for v in views)) for name, views in self.heads]


VARIANT_SPECS: dict[str, VariantSpec] = {
    "lf_avg_gate": VariantSpec((("head_add", ("add",)), ("head_concat", ("concat",)),
                                ("head_full", ("full",))), "gate"),
    "concat_add_concat": VariantSpec((("head_fused", ("add", "concat")),), "single"),
    "concat_all": VariantSpec((("head_all", ("add", "concat", "full")),), "single"),
    "lf_avg": VariantSpec((("head_fused", ("add", "concat")), ("head_full", ("full",))), "mean"),
    "lf_coef": VariantSpec((("head_fused", ("add", "concat")), ("head_full", ("full",))), "coef"),
}
VARIANTS = tuple(VARIANT_SPECS)
DEFAULT_VARIANT = "lf_avg_gate"

# The scalars each combiner learns, zero at init after the heads: name -> size.
COMBINER_PARAMS: dict[str, dict[str, int]] = {"gate": {"gate.g": N_ROUTES}, "coef": {"coef.alpha": 1}}


def variant_spec(variant: str) -> VariantSpec:
    """The table entry of a variant; ValueError names the known ones."""
    if variant not in VARIANT_SPECS:
        raise ValueError(f"unknown fusion variant {variant!r}; expected one of {VARIANTS}")
    return VARIANT_SPECS[variant]


def _head(z: Tensor, params: dict, prefix: str) -> Tensor:
    w = params[f"{prefix}.w"]
    if z.shape[0] != w.shape[0]:
        raise nm.ShapeError(
            f"{prefix} head expects input width {w.shape[0]}, got {z.shape[0]} "
            f"(window count mismatch between checkpoint and data?)")
    return nm.matmul(z, w, params[f"{prefix}.b"])


def _head_logits(spec: VariantSpec, views: dict[str, Tensor], params: dict) -> list[Tensor]:
    logits = []
    for name, inputs in spec.heads:
        z = views[inputs[0]] if len(inputs) == 1 else nm.concat_vec([views[v] for v in inputs])
        logits.append(_head(z, params, name))
    return logits


def _mean(logits: list[Tensor]) -> Tensor:
    return nm.scale(nm.add_n(logits), 1.0 / len(logits))


def sample_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard Gumbel(0, 1) noise via -log(-log U)."""
    u = rng.random(shape)
    return -np.log(-np.log(np.clip(u, 1e-12, 1.0 - 1e-12)))


def gumbel_gate(routes: list[Tensor], gate_g: Tensor, rng: np.random.Generator | None) -> tuple[Tensor, int]:
    """Route selection; returns (final logits, selected route index).

    Training (an rng): take the hard one-hot of softmax(g + noise), for Gumbel
    noise drawn from rng, with gradients through the soft weights (straight-through).
    Inference (None): argmax(g), exact copy of that route's logits, nothing sampled.
    """
    if gate_g.shape != (N_ROUTES,):
        raise nm.ShapeError(f"gate expects {N_ROUTES} scores, got shape {gate_g.shape}")
    if rng is None:
        chosen = int(np.argmax(gate_g.data))
        return routes[chosen], chosen
    noise = sample_gumbel(rng, (N_ROUTES,))
    soft = nm.softmax_rows(nm.add_const(gate_g, noise))
    chosen = int(np.argmax(soft.data))
    one_hot = np.zeros(N_ROUTES, dtype=soft.data.dtype)
    one_hot[chosen] = 1.0
    w = nm.straight_through(soft, one_hot)
    return nm.matmul(w, nm.stack_rows(routes)), chosen


# ---------------------------------------------------------------------------
# fusion variants

def fusion_param_rows(variant: str, n_windows: int, embed_dim: int, n_classes: int) -> Iterator[ParamRow]:
    """The variant's head rows in spec order, then its combiner's scalars."""
    spec = variant_spec(variant)
    for prefix, width in spec.head_widths(n_windows, embed_dim):
        yield from linear_rows(prefix, width, n_classes)
    for name, size in COMBINER_PARAMS.get(spec.combiner, {}).items():
        yield (name, (size,), "zeros")


def classify(windows: list[Tensor], z_full: Tensor, params: dict, variant: str,
             rng: np.random.Generator | None) -> tuple[Tensor, int | None]:
    """Window and full-signal embeddings -> (final class logits, gate route
    or None); an rng means training.

    The views are formed here, before any head runs: "add" is the windows'
    elementwise sum (order-free, fixed width), "concat" their concatenation
    in window order (width grows with window count), "full" is z_full.  No
    windows, unequal widths or a non-vector raise ShapeError.  Only the gate
    combiner reports a route index; the others have no discrete selection to log.
    """
    spec = variant_spec(variant)
    views = {"add": nm.add_n(windows), "concat": nm.concat_vec(windows), "full": z_full}
    logits = _head_logits(spec, views, params)
    if spec.combiner == "gate":
        return gumbel_gate([*logits, _mean(logits)], params["gate.g"], rng)
    if spec.combiner == "mean":
        return _mean(logits), None
    if spec.combiner == "coef":
        # blend weights (a, 1-a) with a = sigmoid(alpha), kept inside [0, 1]
        a = nm.sigmoid(params["coef.alpha"])
        blend = nm.concat_vec([a, nm.add_const(nm.scale(a, -1.0), 1.0)])
        return nm.matmul(blend, nm.stack_rows(logits)), None
    return logits[0], None
