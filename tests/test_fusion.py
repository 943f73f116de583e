"""Fusion and routing: exact fuse arithmetic, gate selection statistics
against a closed-form oracle, straight-through gradients, and the
contracts of every head variant."""

import numpy as np
import pytest

import oracles
from resppain import numerics as nm
from resppain import encoder as enc
from resppain import fusion as fus
from resppain import training as trn


def _vec(rng, n):
    return nm.constant(rng.normal(size=n).astype(np.float32))


def _routes(z_add, z_concat, z_full, params):
    """The gate's four routes: the lf_avg_gate heads' logits, then their mean."""
    heads = fus._head_logits(fus.VARIANT_SPECS["lf_avg_gate"], z_add, z_concat, z_full, params)
    return [*heads, fus._mean(heads)]


def _fusion_params(variant, n_windows=3, embed_dim=8, n_classes=3, seed=0):
    return enc.draw_params(fus.fusion_param_rows(variant, n_windows, embed_dim, n_classes),
                           np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# window fusion

def test_fuse_windows_exact_values():
    e1 = nm.constant(np.array([1.0, 2.0], dtype=np.float32))
    e2 = nm.constant(np.array([10.0, 20.0], dtype=np.float32))
    e3 = nm.constant(np.array([100.0, 200.0], dtype=np.float32))
    z_add, z_concat = fus.fuse_windows([e1, e2, e3])
    np.testing.assert_array_equal(z_add.data, [111.0, 222.0])
    np.testing.assert_array_equal(z_concat.data, [1, 2, 10, 20, 100, 200])
    # sum is order-free, concatenation is not
    z_add2, z_concat2 = fus.fuse_windows([e3, e1, e2])
    np.testing.assert_array_equal(z_add2.data, z_add.data)
    assert not np.array_equal(z_concat2.data, z_concat.data)


def test_fuse_windows_single_window():
    e = nm.constant(np.array([3.0, 4.0], dtype=np.float32))
    z_add, z_concat = fus.fuse_windows([e])
    np.testing.assert_array_equal(z_add.data, e.data)
    np.testing.assert_array_equal(z_concat.data, e.data)


def test_fuse_windows_validation():
    with pytest.raises(nm.ShapeError):
        fus.fuse_windows([])
    with pytest.raises(nm.ShapeError):
        fus.fuse_windows([nm.constant(np.zeros(2, np.float32)),
                          nm.constant(np.zeros(3, np.float32))])


# ---------------------------------------------------------------------------
# heads

def test_avg_route_is_exact_mean():
    rng = np.random.default_rng(1)
    params = _fusion_params("lf_avg_gate")
    routes = _routes(_vec(rng, 8), _vec(rng, 24), _vec(rng, 8), params)
    want = (routes[0].data.astype(np.float64) + routes[1].data
            + routes[2].data) / 3.0
    np.testing.assert_allclose(routes[3].data, want, atol=1e-6)
    assert [t.shape for t in routes] == [(3,)] * 4


def test_head_width_mismatch_names_the_problem():
    rng = np.random.default_rng(2)
    params = _fusion_params("lf_avg_gate", n_windows=3)
    with pytest.raises(nm.ShapeError, match="window count mismatch"):
        _routes(_vec(rng, 8), _vec(rng, 16), _vec(rng, 8), params)


def test_head_is_affine():
    rng = np.random.default_rng(3)
    params = _fusion_params("lf_avg_gate")
    z = rng.normal(size=8).astype(np.float32)
    got = fus._head(nm.constant(z), params, "head_add").data
    want = z.astype(np.float64) @ params["head_add.w"].data + params["head_add.b"].data
    np.testing.assert_allclose(got, want, atol=1e-6)


# ---------------------------------------------------------------------------
# gate

def test_gate_inference_returns_selected_route_tensor_exactly():
    rng = np.random.default_rng(4)
    params = _fusion_params("lf_avg_gate", seed=5)
    g = np.array([0.1, 1.5, -0.3, 0.9], dtype=np.float32)
    params["gate.g"] = nm.parameter(g)
    routes = _routes(_vec(rng, 8), _vec(rng, 24), _vec(rng, 8), params)
    logits, chosen = fus.gumbel_gate(routes, params["gate.g"], None)
    assert chosen == 1
    assert logits is routes[1]   # the route tensor itself, bit-for-bit
    # classify reports that argmax route at inference; gateless variants report none
    z_add, z_concat, z_full = _vec(rng, 8), _vec(rng, 24), _vec(rng, 8)
    logits, route = fus.classify(z_add, z_concat, z_full, params, "lf_avg_gate", None)
    assert route == 1
    assert logits.data.tobytes() == _routes(z_add, z_concat, z_full, params)[1].data.tobytes()
    assert fus.classify(z_add, z_concat, z_full, _fusion_params("lf_avg"), "lf_avg", None)[1] is None


def test_gate_training_emits_hard_one_hot_mixture():
    rng = np.random.default_rng(9)
    params = _fusion_params("lf_avg_gate", seed=10)
    routes = _routes(_vec(rng, 8), _vec(rng, 24), _vec(rng, 8), params)
    logits, chosen = fus.gumbel_gate(routes, params["gate.g"], np.random.default_rng(11))
    assert 0 <= chosen < 4
    np.testing.assert_allclose(logits.data, routes[chosen].data, atol=1e-6)
    with pytest.raises(nm.ShapeError):
        fus.gumbel_gate(routes, nm.parameter(np.zeros(3, np.float32)), np.random.default_rng(0))


def test_gate_selection_rates_match_softmax_oracle():
    # P(argmax(g + Gumbel)) = softmax(g); Monte Carlo both the
    # implementation and an independent numpy re-derivation, +-2% absolute.
    g = np.array([0.5, -0.25, 0.0, 1.0], dtype=np.float32)
    want = oracles.softmax_rows_f64(g)[0]

    rng = np.random.default_rng(12)
    n = 10_000
    counts_impl = np.zeros(4)
    for _ in range(n):
        noise = fus.sample_gumbel(rng, (4,))
        counts_impl[np.argmax(g + noise)] += 1

    rng2 = np.random.default_rng(13)
    counts_ref = np.zeros(4)
    for _ in range(n):
        u = rng2.random(4)
        counts_ref[np.argmax(g - np.log(-np.log(u)))] += 1

    np.testing.assert_allclose(counts_impl / n, want, atol=0.02)
    np.testing.assert_allclose(counts_ref / n, want, atol=0.02)


def test_gate_training_selection_through_full_path():
    # run the real gate; frequencies still follow softmax(g)
    rng = np.random.default_rng(14)
    params = _fusion_params("lf_avg_gate", seed=15)
    g = np.array([1.0, 0.0, 0.0, -1.0], dtype=np.float32)
    params["gate.g"] = nm.parameter(g)
    routes = _routes(_vec(rng, 8), _vec(rng, 24), _vec(rng, 8), params)
    want = oracles.softmax_rows_f64(g)[0]
    n = 4000
    counts = np.zeros(4)
    gate_rng = np.random.default_rng(16)
    for _ in range(n):
        with nm.no_grad():
            _, chosen = fus.gumbel_gate(routes, params["gate.g"], gate_rng)
        counts[chosen] += 1
    np.testing.assert_allclose(counts / n, want, atol=0.025)


def test_gate_gradient_flows_to_scores():
    # straight-through: d loss / d g is nonzero and softmax-shift invariant
    def gate_grad(g_values, seed):
        rng = np.random.default_rng(seed)
        params = _fusion_params("lf_avg_gate", seed=17)
        params["gate.g"] = nm.parameter(np.asarray(g_values, dtype=np.float32))
        routes = _routes(_vec(rng, 8), _vec(rng, 24), _vec(rng, 8), params)
        logits, _ = fus.gumbel_gate(routes, params["gate.g"], np.random.default_rng(18))
        loss = nm.scale(nm.sum_all(nm.mul(logits, logits)), 0.5)
        return nm.backward(loss)[params["gate.g"]]

    grad = gate_grad([0.2, -0.1, 0.4, 0.0], seed=19)
    assert grad.shape == (4,)
    assert np.any(grad != 0.0)
    # softmax(g + c + noise) is unchanged by a constant shift c
    grad_shifted = gate_grad(np.array([0.2, -0.1, 0.4, 0.0]) + 5.0, seed=19)
    np.testing.assert_allclose(grad, grad_shifted, atol=1e-5)


# ---------------------------------------------------------------------------
# variants

def test_variant_list_and_param_sets():
    assert fus.DEFAULT_VARIANT == "lf_avg_gate"
    # exact order: it is the RNG draw order of init and the checkpoint tensor order
    assert fus.VARIANTS == ("lf_avg_gate", "concat_add_concat", "concat_all", "lf_avg", "lf_coef")
    p = _fusion_params("lf_avg_gate")
    assert list(p) == ["head_add.w", "head_add.b", "head_concat.w", "head_concat.b",
                       "head_full.w", "head_full.b", "gate.g"]
    assert p["head_concat.w"].shape == (24, 3)
    assert list(_fusion_params("concat_add_concat")) == ["head_fused.w", "head_fused.b"]
    assert _fusion_params("concat_add_concat")["head_fused.w"].shape == (32, 3)
    assert list(_fusion_params("concat_all")) == ["head_all.w", "head_all.b"]
    assert _fusion_params("concat_all")["head_all.w"].shape == (40, 3)
    assert list(_fusion_params("lf_avg")) == ["head_fused.w", "head_fused.b",
                                              "head_full.w", "head_full.b"]
    assert list(_fusion_params("lf_coef")) == ["head_fused.w", "head_fused.b",
                                               "head_full.w", "head_full.b", "coef.alpha"]
    with pytest.raises(ValueError):
        _fusion_params("bogus")
    with pytest.raises(ValueError):
        trn.init_pipeline_params(enc.EncoderConfig(n_latents=2, model_dim=4, out_dim=8), "lf_avg", 0, 3,
                                 np.random.default_rng(0))


def test_classify_variant_contracts():
    rng = np.random.default_rng(20)
    z_add, z_concat, z_full = _vec(rng, 8), _vec(rng, 24), _vec(rng, 8)

    for variant in fus.VARIANTS:
        params = _fusion_params(variant, seed=21)
        rng_or_none = np.random.default_rng(22) if variant == "lf_avg_gate" else None
        logits, route = fus.classify(z_add, z_concat, z_full, params, variant, rng_or_none)
        assert logits.shape == (3,)
        if variant == "lf_avg_gate":
            assert route is not None and 0 <= route < 4
        else:
            assert route is None

    with pytest.raises(ValueError):
        fus.classify(z_add, z_concat, z_full, {}, "bogus", None)


def test_classify_concatenates_only_multi_view_head_inputs(monkeypatch):
    # a head over one view reads it directly, so it adds no concat node;
    # lf_coef's one extra concat is its (a, 1 - a) blend vector
    rng = np.random.default_rng(29)
    z_add, z_concat, z_full = _vec(rng, 8), _vec(rng, 24), _vec(rng, 8)
    real_concat, widths = nm.concat_vec, []

    def recording_concat(parts):
        widths.append(sum(p.shape[0] for p in parts))
        return real_concat(parts)

    monkeypatch.setattr(nm, "concat_vec", recording_concat)
    want = {"lf_avg_gate": [], "concat_add_concat": [32], "concat_all": [40],
            "lf_avg": [32], "lf_coef": [32, 2]}
    for variant in fus.VARIANTS:
        widths.clear()
        fus.classify(z_add, z_concat, z_full, _fusion_params(variant), variant, None)
        assert widths == want[variant], variant


def test_classify_lf_avg_is_exact_half_sum():
    rng = np.random.default_rng(23)
    z_add, z_concat, z_full = _vec(rng, 8), _vec(rng, 24), _vec(rng, 8)
    params = _fusion_params("lf_avg", seed=24)
    logits, _ = fus.classify(z_add, z_concat, z_full, params, "lf_avg", None)
    l_fused = fus._head(nm.concat_vec([z_add, z_concat]), params, "head_fused")
    l_full = fus._head(z_full, params, "head_full")
    want = 0.5 * (l_fused.data.astype(np.float64) + l_full.data)
    np.testing.assert_allclose(logits.data, want, atol=1e-6)


def test_classify_lf_coef_blend_at_zero_alpha_is_midpoint():
    rng = np.random.default_rng(25)
    z_add, z_concat, z_full = _vec(rng, 8), _vec(rng, 24), _vec(rng, 8)
    params = _fusion_params("lf_coef", seed=26)      # alpha starts at 0
    logits, _ = fus.classify(z_add, z_concat, z_full, params, "lf_coef", None)
    params_avg = {k: v for k, v in params.items() if k != "coef.alpha"}
    want, _ = fus.classify(z_add, z_concat, z_full, params_avg, "lf_avg", None)
    np.testing.assert_allclose(logits.data, want.data, atol=1e-6)
    # alpha gets a gradient
    loss = nm.sum_all(nm.mul(logits, logits))
    assert params["coef.alpha"] in nm.backward(loss)


def test_classify_deterministic_at_inference():
    rng = np.random.default_rng(27)
    z_add, z_concat, z_full = _vec(rng, 8), _vec(rng, 24), _vec(rng, 8)
    for variant in fus.VARIANTS:
        params = _fusion_params(variant, seed=28)
        a, _ = fus.classify(z_add, z_concat, z_full, params, variant, None)
        b, _ = fus.classify(z_add, z_concat, z_full, params, variant, None)
        np.testing.assert_array_equal(a.data, b.data)
