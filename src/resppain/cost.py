"""Analytic parameter and FLOP accounting for the encoder pipeline.

Parameter formulas mirror the parameter declaration (`*_param_rows` in
`encoder` and `fusion`) tensor-for-tensor, so the analytic count must
equal exact enumeration of an instantiated model.  They are kept apart
from that declaration on purpose: derived from it, acceptance criterion
3 would compare the declaration with itself.

FLOP conventions (forward pass, inference): a multiply-accumulate costs
2 FLOPs, softmax 5 FLOPs per element, a layer norm 8 FLOPs per element,
and a transcendental evaluation (sin/cos/gelu) 8 FLOPs.  Counts are
exact integers under these conventions.

Pipeline cost splits into a per-window fixed part (everything operating
on the latent array: Q/O projections, self-attention, FFNs, pooling) and
a per-token part (tokenization, K/V projections, attention scores and
mixing).  Attention is linear in token count, so the per-token work of
the window pass is counted over the input samples that tile the windows;
the zero-pad tail of the last window is excluded by convention.

wk has no bias (softmax ignores a per-latent score shift), but these
analytic FLOPs keep the paper's convention, against which
`REFERENCE_COSTS` compares them: every token is projected to a biased key
and a value at model width.  The executed forward contracts the scores
and the value mix through the c wide normed tokens (`encoder.attention`),
so it does fewer FLOPs than counted here: a measured executed-to-analytic
ratio below 1 is by design, not a missed term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fusion as fus
from .encoder import EncoderConfig
from .signal import N_CLASSES

FLOPS_PER_MAC = 2
SOFTMAX_FLOPS_PER_ELEM = 5
NORM_FLOPS_PER_ELEM = 8
FUNC_FLOPS_PER_ELEM = 8

# Reference costs for the six standard layouts: millions of
# parameters and GFLOPs per window encode, used only for the deviation
# columns of the profile report.
REFERENCE_COSTS: dict[tuple[int, int, int], tuple[float, float]] = {
    (1, 1, 0): (3.62, 1.65),
    (2, 1, 0): (6.84, 3.30),
    (1, 1, 1): (7.82, 3.80),
    (1, 1, 2): (12.02, 5.94),
    (2, 1, 1): (15.24, 7.60),
    (2, 1, 2): (23.64, 11.88),
}


@dataclass(frozen=True)
class CostReport:
    params_by_component: dict[str, int]
    flops_by_component: dict[str, int] = field(default_factory=dict)

    @property
    def params_total(self) -> int:
        return sum(self.params_by_component.values())

    @property
    def flops_forward(self) -> int:
        return sum(self.flops_by_component.values())


# ---------------------------------------------------------------------------
# parameters

def _linear_params(fan_in: int, fan_out: int) -> int:
    return fan_in * fan_out + fan_out


def _norm_params(dim: int) -> int:
    return 2 * dim


def _attention_params(cfg: EncoderConfig, kv_dim: int) -> int:
    d = cfg.model_dim
    return (_norm_params(d) + _norm_params(kv_dim)
            + _linear_params(d, d)        # wq
            + kv_dim * d                  # wk, no bias
            + _linear_params(kv_dim, d)   # wv
            + _linear_params(d, d))       # wo


def _ffn_params(cfg: EncoderConfig) -> int:
    d, e = cfg.model_dim, cfg.ffn_expansion
    return _norm_params(d) + 2 * _linear_params(d, e * d) + _linear_params(e * d, d)


def _unit_counts(cfg: EncoderConfig) -> tuple[int, int]:
    """(number of cross-attention units, number of self-attention units)."""
    crosses = cfg.depth * cfg.cross_per_block
    selfs = crosses * cfg.self_per_block
    return crosses, selfs


def _head_params(variant: str, n_windows: int, embed_dim: int, n_classes: int) -> dict[str, int]:
    spec = fus.variant_spec(variant)
    heads = sum(_linear_params(width, n_classes) for _, width in spec.head_widths(n_windows, embed_dim))
    return {"heads": heads, "gate": sum(fus.COMBINER_PARAMS.get(spec.combiner, {}).values())}


def count_params(cfg: EncoderConfig, n_windows: int, n_classes: int = N_CLASSES,
                 variant: str = fus.DEFAULT_VARIANT) -> CostReport:
    """Closed-form parameter count; must equal model enumeration exactly."""
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    crosses, selfs = _unit_counts(cfg)
    by_component = {
        "latents": cfg.n_latents * cfg.model_dim,
        "cross_attention": crosses * _attention_params(cfg, cfg.token_dim),
        "self_attention": selfs * _attention_params(cfg, cfg.model_dim),
        "ffn": (crosses + selfs) * _ffn_params(cfg),
        "projection": _linear_params(cfg.model_dim, cfg.out_dim),
    }
    by_component.update(_head_params(variant, n_windows, cfg.out_dim, n_classes))
    return CostReport(by_component)


# ---------------------------------------------------------------------------
# FLOPs

def encode_flops_split(cfg: EncoderConfig) -> tuple[int, int]:
    """(fixed FLOPs per encoder invocation, FLOPs per input token)."""
    n, d, e, k = cfg.n_latents, cfg.model_dim, cfg.ffn_expansion, cfg.fourier_bands
    d_in = cfg.token_dim
    crosses, selfs = _unit_counts(cfg)

    mac = FLOPS_PER_MAC
    cross_fixed = (NORM_FLOPS_PER_ELEM * n * d          # latent pre-norm
                   + mac * n * d * d + n * d            # wq
                   + mac * n * d * d + n * d            # wo
                   + n * d)                             # residual
    cross_token = (NORM_FLOPS_PER_ELEM * d_in           # token pre-norm
                   + 2 * (mac * d_in * d + d)           # wk, wv
                   + mac * n * d + n                    # scores row + scale
                   + SOFTMAX_FLOPS_PER_ELEM * n         # softmax column
                   + mac * n * d)                       # weights @ V column
    self_fixed = (2 * NORM_FLOPS_PER_ELEM * n * d   # ln_q and ln_kv, both over latents
                  + 4 * (mac * n * d * d + n * d)       # wq, wk, wv, wo
                  + mac * n * n * d + n * n             # scores + scale
                  + SOFTMAX_FLOPS_PER_ELEM * n * n
                  + mac * n * n * d                     # weights @ V
                  + n * d)                              # residual
    ffn_fixed = (NORM_FLOPS_PER_ELEM * n * d
                 + 2 * (mac * n * d * e * d + n * e * d)  # wu, wg
                 + FUNC_FLOPS_PER_ELEM * n * e * d        # gelu
                 + n * e * d                              # gating product
                 + mac * n * e * d * d + n * d            # wo
                 + n * d)                                 # residual
    token_features = (2 * k                               # phase products
                      + FUNC_FLOPS_PER_ELEM * 2 * k)      # sin and cos
    pool_proj = (n * d + d                                # mean pool
                 + mac * d * cfg.out_dim + cfg.out_dim)   # projection

    fixed = crosses * cross_fixed + selfs * self_fixed + (crosses + selfs) * ffn_fixed + pool_proj
    per_token = token_features + crosses * cross_token
    return fixed, per_token


def encode_flops(cfg: EncoderConfig, n_tokens: int) -> int:
    """Forward FLOPs for one encoder pass over n_tokens samples."""
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be >= 1, got {n_tokens}")
    fixed, per_token = encode_flops_split(cfg)
    return fixed + n_tokens * per_token


def _head_flops(variant: str, n_windows: int, embed_dim: int, n_classes: int) -> tuple[int, int]:
    """(head FLOPs, gate FLOPs) for one pipeline forward.

    A logit mean over k heads (its own combiner, or the gate's fourth
    route) counts k * n_classes with the heads.
    """
    mac, routes = FLOPS_PER_MAC, fus.N_ROUTES
    spec = fus.variant_spec(variant)
    widths = [width for _, width in spec.head_widths(n_windows, embed_dim)]
    heads = sum(mac * width * n_classes + n_classes for width in widths)
    k = len(widths)
    if spec.combiner in ("gate", "mean"):
        heads += k * n_classes                            # logit mean
    gate = 0
    if spec.combiner == "gate":
        gate = (routes                                    # noise add
                + routes                                  # temperature scale
                + SOFTMAX_FLOPS_PER_ELEM * routes
                + mac * routes * n_classes)               # route mixing
    elif spec.combiner == "coef":
        gate = FUNC_FLOPS_PER_ELEM + 2 + mac * k * n_classes   # sigmoid, blend
    return heads, gate


def count_flops(cfg: EncoderConfig, input_length: int, n_windows: int,
                n_classes: int = N_CLASSES, variant: str = fus.DEFAULT_VARIANT) -> CostReport:
    """Forward FLOPs for the whole pipeline on one input signal.

    windows term: n_windows fixed encoder invocations whose token work
    tiles the input samples; full-signal term: one more invocation over
    all samples; plus heads and gate.  Fusion adds (z_add) are counted
    with the heads' window term.
    """
    if input_length < 1:
        raise ValueError(f"input_length must be >= 1, got {input_length}")
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    fixed, per_token = encode_flops_split(cfg)
    fuse_adds = (n_windows - 1) * cfg.out_dim   # z_add accumulation
    heads, gate = _head_flops(variant, n_windows, cfg.out_dim, n_classes)
    by_component = {
        "windows": n_windows * fixed + input_length * per_token,
        "full_signal": fixed + input_length * per_token,
        "heads": heads + fuse_adds,
        "gate": gate,
    }
    return CostReport(count_params(cfg, n_windows, n_classes, variant).params_by_component, by_component)
