"""Cost accounting: the closed-form parameter count against exact
enumeration of instantiated models, hand-derived FLOP fixtures, and the
ordering/monotonicity contracts of the pipeline cost model."""

import dataclasses

import numpy as np
import pytest

from helpers import enumerate_params
from resppain import cost
from resppain import encoder as enc
from resppain import fusion as fus
from resppain import training as trn

SMALL = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0,
                          n_latents=8, model_dim=16, fourier_bands=2,
                          ffn_expansion=2, dropout=0.0, out_dim=8)


def _cfg(layout, base=SMALL):
    d, c, s = layout
    return dataclasses.replace(base, depth=d, cross_per_block=c, self_per_block=s)


# ---------------------------------------------------------------------------
# parameters: analytic == enumeration

def test_param_count_equals_enumeration_all_layouts():
    for layout in enc.STANDARD_GRID:
        cfg = _cfg(layout)
        analytic = cost.count_params(cfg, n_windows=3).params_total
        params = trn.init_pipeline_params(cfg, "lf_avg_gate", 3, 3, np.random.default_rng(0))
        assert analytic == enumerate_params(params), layout


def test_param_count_equals_enumeration_all_variants():
    for variant in fus.VARIANTS:
        analytic = cost.count_params(SMALL, n_windows=4, variant=variant).params_total
        params = trn.init_pipeline_params(SMALL, variant, 4, 3, np.random.default_rng(1))
        assert analytic == enumerate_params(params), variant


def test_param_count_encoder_only_matches():
    # heads/gate components are exactly the fusion parameter count
    report = cost.count_params(SMALL, n_windows=3)
    fusion = enc.draw_params(fus.fusion_param_rows("lf_avg_gate", 3, SMALL.out_dim, 3),
                             np.random.default_rng(2))
    fusion_n = enumerate_params(fusion)
    assert report.params_by_component["heads"] + report.params_by_component["gate"] == fusion_n
    encoder = enc.draw_params(enc.encoder_param_rows(SMALL), np.random.default_rng(3))
    assert report.params_total - fusion_n == enumerate_params(encoder)


def test_param_totals_strictly_ascend_across_grid():
    defaults = enc.EncoderConfig()
    totals = [cost.count_params(_cfg(l, defaults), n_windows=3).params_total
              for l in enc.STANDARD_GRID]
    assert all(a < b for a, b in zip(totals, totals[1:])), totals


def test_default_layout_within_reference_band():
    # signed deviation of the (1,1,0) default against the
    # 3.62M reference value stays inside +-15%.
    total = cost.count_params(enc.EncoderConfig(), n_windows=3).params_total
    ref = cost.REFERENCE_COSTS[(1, 1, 0)][0] * 1e6
    assert abs(total - ref) / ref < 0.15


def test_count_params_validation():
    with pytest.raises(ValueError):
        cost.count_params(SMALL, n_windows=0)
    with pytest.raises(ValueError):
        cost.count_params(SMALL, 3, variant="bogus")


# ---------------------------------------------------------------------------
# FLOPs: hand fixture and independent recomputation

def test_encode_flops_minimal_hand_fixture():
    # unit-size config, every term written out by hand:
    # token features 2k + 8*2k = 18 per token; cross fixed
    # 8 + (2+1) + (2+1) + 1 = 15; cross per-token with d_in = 4:
    # 32 + 18 + 3 + 5 + 2 = 60; ffn fixed 8+6+8+1+3+1 = 27;
    # pool+proj 1+1+2+1 = 5.  Total at one token:
    # (15 + 27 + 5) + 1 * (18 + 60) = 125.
    tiny = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0,
                             n_latents=1, model_dim=1, fourier_bands=1,
                             ffn_expansion=1, dropout=0.0, out_dim=1)
    assert cost.encode_flops(tiny, 1) == 125
    fixed, per_token = cost.encode_flops_split(tiny)
    assert (fixed, per_token) == (47, 78)
    assert cost.encode_flops(tiny, 10) == 47 + 10 * 78


def _encode_flops_independent(cfg: enc.EncoderConfig, t: int) -> int:
    """Whole-matrix recount of one encoder pass (no fixed/token split)."""
    n, d, e, k, di = (cfg.n_latents, cfg.model_dim, cfg.ffn_expansion,
                      cfg.fourier_bands, cfg.token_dim)
    crosses = cfg.depth * cfg.cross_per_block
    selfs = crosses * cfg.self_per_block
    total = t * (2 * k) + t * (8 * 2 * k)                      # fourier features
    for _ in range(crosses):
        total += 8 * n * d + 8 * t * di                        # pre-norms
        total += 2 * n * d * d + n * d                         # wq
        total += 2 * (2 * t * di * d + t * d)                  # wk, wv
        total += 2 * n * t * d + n * t                         # scores, scale
        total += 5 * n * t                                     # softmax
        total += 2 * n * t * d                                 # weights @ V
        total += 2 * n * d * d + n * d                         # wo
        total += n * d                                         # residual
    for _ in range(selfs):
        total += 8 * n * d + 8 * n * d
        total += 2 * n * d * d + n * d
        total += 2 * (2 * n * d * d + n * d)
        total += 2 * n * n * d + n * n
        total += 5 * n * n
        total += 2 * n * n * d
        total += 2 * n * d * d + n * d
        total += n * d
    for _ in range(crosses + selfs):                           # gated ffn
        total += 8 * n * d
        total += 2 * (2 * n * d * e * d + n * e * d)
        total += 8 * n * e * d + n * e * d
        total += 2 * n * e * d * d + n * d
        total += n * d
    total += n * d + d                                         # mean pool
    total += 2 * d * cfg.out_dim + cfg.out_dim                 # projection
    return total


def test_encode_flops_matches_independent_recount():
    for layout in enc.STANDARD_GRID:
        cfg = _cfg(layout)
        for t in (1, 7, 200):
            assert cost.encode_flops(cfg, t) == _encode_flops_independent(cfg, t), (layout, t)


def test_encode_flops_validation():
    with pytest.raises(ValueError):
        cost.encode_flops(SMALL, 0)


def test_flops_monotone_in_every_size_knob():
    base = cost.encode_flops(SMALL, 100)
    assert cost.encode_flops(_cfg((2, 1, 0)), 100) > base
    assert cost.encode_flops(_cfg((1, 1, 1)), 100) > base
    assert cost.encode_flops(dataclasses.replace(SMALL, n_latents=16), 100) > base
    assert cost.encode_flops(dataclasses.replace(SMALL, model_dim=32), 100) > base
    assert cost.encode_flops(dataclasses.replace(SMALL, ffn_expansion=4), 100) > base
    assert cost.encode_flops(SMALL, 101) > base


def test_reference_cost_ordering_is_reproduced():
    # computed params and per-window FLOPs both ascend in the same order
    # as the bundled reference table
    defaults = enc.EncoderConfig()
    params = [cost.count_params(_cfg(l, defaults), 3).params_total for l in enc.STANDARD_GRID]
    flops = [cost.encode_flops(_cfg(l, defaults), 500) for l in enc.STANDARD_GRID]
    ref_params = [cost.REFERENCE_COSTS[l][0] for l in enc.STANDARD_GRID]
    ref_flops = [cost.REFERENCE_COSTS[l][1] for l in enc.STANDARD_GRID]
    assert sorted(params) == params and sorted(ref_params) == ref_params
    assert sorted(flops) == flops and sorted(ref_flops) == ref_flops


# ---------------------------------------------------------------------------
# pipeline cost model

def test_pipeline_flops_components_and_total():
    rep = cost.count_flops(SMALL, input_length=400, n_windows=2)
    assert set(rep.flops_by_component) == {"windows", "full_signal", "heads", "gate"}
    assert rep.flops_forward == sum(rep.flops_by_component.values())
    fixed, per_token = cost.encode_flops_split(SMALL)
    assert rep.flops_by_component["windows"] == 2 * fixed + 400 * per_token
    assert rep.flops_by_component["full_signal"] == fixed + 400 * per_token
    assert rep.flops_by_component["gate"] > 0
    gateless = cost.count_flops(SMALL, 400, 2, variant="concat_all")
    assert gateless.flops_by_component["gate"] == 0


def test_head_and_gate_costs_exact_for_every_variant():
    # (head params, gate params, head FLOPs, gate FLOPs) at out_dim 8 and
    # 3 classes.  A head over width w costs 3w + 3 params and 6w + 3 FLOPs;
    # a logit mean over k heads 3k FLOPs; the gate 4 params and
    # 4 + 4 + 5*4 + 2*4*3 = 52 FLOPs; lf_coef's blend 1 param and
    # 8 + 2 + 2*2*3 = 22 FLOPs; z_add's window sums 8(n - 1) with the heads.
    want = {
        ("lf_avg_gate", 1): (81, 4, 162, 52), ("lf_avg_gate", 3): (129, 4, 274, 52),
        ("concat_add_concat", 1): (51, 0, 99, 0), ("concat_add_concat", 3): (99, 0, 211, 0),
        ("concat_all", 1): (75, 0, 147, 0), ("concat_all", 3): (123, 0, 259, 0),
        ("lf_avg", 1): (78, 0, 156, 0), ("lf_avg", 3): (126, 0, 268, 0),
        ("lf_coef", 1): (78, 1, 150, 22), ("lf_coef", 3): (126, 1, 262, 22),
    }
    for (variant, n_windows), costs in want.items():
        p = cost.count_params(SMALL, n_windows, variant=variant).params_by_component
        f = cost.count_flops(SMALL, 400, n_windows, variant=variant).flops_by_component
        assert (p["heads"], p["gate"], f["heads"], f["gate"]) == costs, (variant, n_windows)


def test_window_term_doubles_with_window_count_at_fixed_window_length():
    # doubling the number of fixed-length windows doubles both
    # the tiled input and the per-window fixed work, hence the term itself.
    a = cost.count_flops(SMALL, input_length=400, n_windows=2)
    b = cost.count_flops(SMALL, input_length=800, n_windows=4)
    assert b.flops_by_component["windows"] == 2 * a.flops_by_component["windows"]


def test_window_size_sweep_t1_max_t5_min():
    # 1150-sample input: window counts 12, 6, 4, 3, 3 for
    # T = 1..5 s.  More windows = more fixed-cost invocations, so T = 1 is
    # the strict maximum; T = 4 and T = 5 tie at three windows, leaving
    # T = 5 minimal.
    totals = {}
    for t in range(1, 6):
        n_windows = -(-1150 // (t * 100))   # ceil
        totals[t] = cost.count_flops(SMALL, 1150, n_windows).flops_forward
    assert totals[1] == max(totals.values())
    assert all(totals[1] > totals[t] for t in range(2, 6))
    assert totals[5] == min(totals.values())
    assert totals[4] == totals[5]   # same window count, tie by construction
    assert totals[1] > totals[2] > totals[3] > totals[4]


def test_count_flops_validation_and_param_passthrough():
    with pytest.raises(ValueError):
        cost.count_flops(SMALL, 0, 2)
    with pytest.raises(ValueError):
        cost.count_flops(SMALL, 100, 0)
    rep = cost.count_flops(SMALL, 400, 2)
    assert rep.params_total == cost.count_params(SMALL, 2).params_total
