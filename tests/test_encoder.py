"""Latent encoder: tokenization, attention against a brute-force oracle,
structural invariants, gradients, and checkpoint serialization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import gradcheck, weighted_sum
from resppain import numerics as nm
from resppain import encoder as enc
from resppain import training as trn

TINY = enc.EncoderConfig(depth=1, cross_per_block=1, self_per_block=0,
                         n_latents=3, model_dim=8, fourier_bands=2,
                         max_freq_hz=10.0, ffn_expansion=2, dropout=0.0, out_dim=4)


def _params(cfg, seed=0, dtype=nm.DEFAULT_DTYPE):
    return enc.draw_params(enc.encoder_param_rows(cfg), np.random.default_rng(seed), dtype=dtype)


# ---------------------------------------------------------------------------
# tokenization

def test_fourier_encode_matches_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=37)
    got = enc.fourier_encode(x, n_bands=6, max_freq=10.0)
    want = oracles.fourier_features(x, 6, 10.0)
    assert got.shape == (37, 14)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_fourier_encode_columns():
    x = np.array([0.5, -1.0, 2.0])
    tok = enc.fourier_encode(x, n_bands=2, max_freq=10.0)
    assert tok.shape == (3, 6)   # value, 2 sin, 2 cos, position
    np.testing.assert_allclose(tok[:, 0], x, atol=0)
    np.testing.assert_allclose(tok[:, -1], [-1.0, 0.0, 1.0], atol=1e-15)
    # center position: sin(0) = 0, cos(0) = 1 for every band
    np.testing.assert_allclose(tok[1, 1:3], 0.0, atol=1e-12)
    np.testing.assert_allclose(tok[1, 3:5], 1.0, atol=1e-12)
    # sin^2 + cos^2 = 1 bandwise
    np.testing.assert_allclose(tok[:, 1:3] ** 2 + tok[:, 3:5] ** 2, 1.0, atol=1e-12)


def test_fourier_encode_single_sample_sits_at_minus_one():
    tok = enc.fourier_encode(np.array([3.0]), n_bands=2, max_freq=4.0)
    assert tok.shape == (1, 6)
    assert tok[0, 0] == 3.0
    assert tok[0, -1] == -1.0
    np.testing.assert_allclose(tok[0, 1], np.sin(-np.pi), atol=1e-12)
    with pytest.raises(nm.ShapeError):
        enc.fourier_encode(np.zeros((2, 2)), 2, 4.0)


@pytest.mark.parametrize("n_bands,max_freq", [(6, 10.0), (2, 4.0)])
def test_fourier_encode_cached_columns_match_oracle(n_bands, max_freq):
    rng = np.random.default_rng(n_bands)
    for t in (1, 2, 500, 1150, 1, 1150):   # the repeats hit the cache
        x = rng.normal(size=t)
        got = enc.fourier_encode(x, n_bands, max_freq)
        np.testing.assert_allclose(got, oracles.fourier_features(x, n_bands, max_freq), atol=1e-12)
        got[:] = 7.0   # the caller owns what it gets back
        again = enc.fourier_encode(x, n_bands, max_freq)
        np.testing.assert_allclose(again, oracles.fourier_features(x, n_bands, max_freq), atol=1e-12)


def test_token_dim_property():
    assert enc.EncoderConfig().token_dim == 14   # 1 + 2*6 + 1
    assert TINY.token_dim == 6


# ---------------------------------------------------------------------------
# initialization

def test_init_key_layout_and_values():
    cfg = dataclasses.replace(TINY, depth=2, self_per_block=1)
    params = _params(cfg, seed=1)
    keys = set(params)
    assert "latents" in keys and "proj.w" in keys and "proj.b" in keys
    for b in range(2):
        assert f"block{b}.cross0.attn.wq.w" in keys
        assert f"block{b}.cross0.self0.attn.wk.w" in keys
        assert f"block{b}.cross0.self0.ffn.wu.w" in keys
    assert params["latents"].shape == (3, 8)
    assert params["block0.cross0.attn.wk.w"].shape == (cfg.token_dim, 8)
    assert params["block0.cross0.self0.attn.wk.w"].shape == (8, 8)
    np.testing.assert_array_equal(params["block0.cross0.attn.ln_q.g"].data, np.ones(8, np.float32))
    np.testing.assert_array_equal(params["block0.cross0.attn.wq.b"].data, np.zeros(8, np.float32))
    assert abs(float(params["latents"].data.std()) - 0.02) < 0.01
    again = _params(cfg, seed=1)
    for k in params:
        np.testing.assert_array_equal(params[k].data, again[k].data)


def test_config_validation():
    with pytest.raises(ValueError):
        enc.EncoderConfig(depth=0)
    with pytest.raises(ValueError):
        enc.EncoderConfig(cross_per_block=0)
    with pytest.raises(ValueError):
        enc.EncoderConfig(self_per_block=-1)
    with pytest.raises(ValueError):
        enc.EncoderConfig(dropout=1.0)
    with pytest.raises(ValueError):
        enc.EncoderConfig(max_freq_hz=0.0)
    assert enc.EncoderConfig().layout() == (1, 1, 0)
    assert enc.STANDARD_GRID[0] == (1, 1, 0)
    assert len(enc.STANDARD_GRID) == 6


# ---------------------------------------------------------------------------
# attention block

def _attention_param_pack(kv_dim, cfg, seed):
    return enc.draw_params(enc._attention_rows("a", kv_dim, cfg.model_dim), np.random.default_rng(seed))


def test_attention_matches_brute_force_oracle():
    # element-by-element float64 reimplementation, tolerance 1e-5
    # token counts up to 64 and token widths up to 14 cover c < d, c = d
    # and c > d; biases are drawn non-zero, so wv.b is checked after the
    # token-width mix, and the oracle gets a non-zero key bias bk that the
    # encoder does not have: softmax ignores the score shift it makes
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n, t, d = rng.integers(1, 4), rng.integers(1, 65), int(rng.choice([2, 4]))
        kv_dim = int(rng.integers(2, 15))
        cfg = dataclasses.replace(TINY, n_latents=int(n), model_dim=d)
        params = _attention_param_pack(kv_dim, cfg, seed)
        for name in [k for k in params if k.endswith(".b")]:
            params[name] = nm.parameter(rng.normal(0.0, 0.3, params[name].shape))
        lat = rng.normal(size=(n, d)).astype(np.float32)
        ctx = rng.normal(size=(t, kv_dim)).astype(np.float32)
        bk = rng.normal(0.0, 0.3, d)
        got = enc.attention(nm.constant(lat), nm.constant(ctx), params, "a",
                            dropout=0.0, rng=None).data
        want = oracles.attention_brute_force(
            lat, ctx,
            params["a.wq.w"].data, params["a.wq.b"].data,
            params["a.wk.w"].data, bk,
            params["a.wv.w"].data, params["a.wv.b"].data,
            params["a.wo.w"].data, params["a.wo.b"].data,
            params["a.ln_q.g"].data, params["a.ln_q.b"].data,
            params["a.ln_kv.g"].data, params["a.ln_kv.b"].data)
        assert oracles.rel_err(got, want, floor=1e-3) < 1e-5, seed


def test_attention_builds_no_token_by_model_width_array(monkeypatch):
    # keys and values are never materialized: with T tokens of width c and
    # model width d (all of T, n, d, c + 1 distinct), no op result of one
    # recorded cross-attention, its latent half included, has both a T and
    # a d axis
    n, d, c, t = 3, 8, 5, 11
    cfg = dataclasses.replace(TINY, n_latents=n, model_dim=d)
    params = _attention_param_pack(c, cfg, seed=9)
    rng = np.random.default_rng(10)
    lat = nm.parameter(rng.normal(size=(n, d)))
    ctx = nm.constant(rng.normal(size=(t, c)))
    real_result, shapes = nm._result, []

    def recording_result(data, parents, bwd):
        shapes.append(data.shape)
        return real_result(data, parents, bwd)

    monkeypatch.setattr(nm, "_result", recording_result)
    enc.attention(lat, ctx, params, "a", dropout=0.2, rng=np.random.default_rng(0))
    assert (n, t) in shapes                       # the scores themselves
    assert not [s for s in shapes if t in s and d in s], shapes


def test_attention_gradcheck_token_width_below_model_width():
    # float64 finite differences through every input of one cross-attention
    # with c < d < T, so the c-wide contraction and the value bias added
    # after the mix are checked at shapes where c and d cannot be confused
    n, c, d, t = 3, 4, 8, 12
    cfg = dataclasses.replace(TINY, n_latents=n, model_dim=d)
    template = _attention_param_pack(c, cfg, seed=0)
    names = list(template)
    shapes = [(n, d), (t, c)] + [template[k].shape for k in names]

    def build(tensors):
        params = dict(zip(names, tensors[2:]))
        return weighted_sum(enc.attention(tensors[0], tensors[1], params, "a", 0.0, None), seed=3)

    assert gradcheck(build, shapes, seed=31) < 1e-5


def test_attention_single_token_ignores_queries():
    # With one context token every attention weight is 1, so the query
    # projection cannot influence the output.
    rng = np.random.default_rng(7)
    cfg = dataclasses.replace(TINY, n_latents=4, model_dim=8)
    params = _attention_param_pack(5, cfg, seed=3)
    lat = rng.normal(size=(4, 8)).astype(np.float32)
    ctx = rng.normal(size=(1, 5)).astype(np.float32)
    out1 = enc.attention(nm.constant(lat), nm.constant(ctx), params, "a", 0.0, None).data
    params2 = dict(params)
    params2["a.wq.w"] = nm.parameter(rng.normal(size=(8, 8)).astype(np.float32))
    out2 = enc.attention(nm.constant(lat), nm.constant(ctx), params2, "a", 0.0, None).data
    np.testing.assert_array_equal(out1, out2)
    # every latent row receives the same mixed vector
    delta = out1 - lat
    np.testing.assert_allclose(delta, np.broadcast_to(delta[0], delta.shape), atol=1e-6)


def test_attention_identical_tokens_context_size_invariant():
    rng = np.random.default_rng(8)
    cfg = dataclasses.replace(TINY, n_latents=3, model_dim=4)
    params = _attention_param_pack(6, cfg, seed=4)
    lat = rng.normal(size=(3, 4)).astype(np.float32)
    row = rng.normal(size=6).astype(np.float32)
    ctx3 = np.tile(row, (3, 1))
    ctx9 = np.tile(row, (9, 1))
    out3 = enc.attention(nm.constant(lat), nm.constant(ctx3), params, "a", 0.0, None).data
    out9 = enc.attention(nm.constant(lat), nm.constant(ctx9), params, "a", 0.0, None).data
    np.testing.assert_allclose(out3, out9, atol=1e-6)


def test_ffn_residual_identity_when_output_weights_zero():
    cfg = dataclasses.replace(TINY, model_dim=4, ffn_expansion=2)
    params = enc.draw_params(enc._ffn_rows("f", cfg.model_dim, cfg.ffn_expansion), np.random.default_rng(5))
    params["f.wo.w"] = nm.parameter(np.zeros((8, 4), dtype=np.float32))
    x = np.random.default_rng(6).normal(size=(3, 4)).astype(np.float32)
    out = enc.gated_ffn(nm.constant(x), params, "f", 0.0, None).data
    np.testing.assert_array_equal(out, x)


# ---------------------------------------------------------------------------
# full encoder

def test_encode_output_shape_independent_of_length():
    params = _params(TINY, seed=9)
    rng = np.random.default_rng(10)
    for t in (1, 5, 50, 500):
        z = enc.encode([rng.normal(size=t).astype(np.float32)], TINY, params)[0]
        assert z.shape == (TINY.out_dim,)
        assert z.data.dtype == np.float32
        assert np.all(np.isfinite(z.data))


def test_encode_deterministic():
    params = _params(TINY, seed=11)
    x = np.random.default_rng(12).normal(size=40).astype(np.float32)
    a = enc.encode([x], TINY, params)[0].data
    b = enc.encode([x], TINY, params)[0].data
    np.testing.assert_array_equal(a, b)


def test_encode_dropout_reproducible_and_stochastic():
    cfg = dataclasses.replace(TINY, dropout=0.3)
    params = _params(cfg, seed=13)
    x = np.random.default_rng(14).normal(size=30).astype(np.float32)
    a = enc.encode([x], cfg, params, rng=np.random.default_rng(99))[0].data
    b = enc.encode([x], cfg, params, rng=np.random.default_rng(99))[0].data
    c = enc.encode([x], cfg, params, rng=np.random.default_rng(100))[0].data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # eval path ignores dropout entirely
    d = enc.encode([x], cfg, params, rng=None)[0].data
    e = enc.encode([x], cfg, params)[0].data
    np.testing.assert_array_equal(d, e)


def test_encode_batch_composition_invariance():
    # an embedding is a function of its own signal only: one call's signals
    # share the first layer's query, yet beside any companions, of any
    # lengths and at any position, each equals what a lone call gives it
    for layout in ((1, 1, 0), (2, 1, 1)):
        cfg = dataclasses.replace(TINY, depth=layout[0], self_per_block=layout[2])
        params = _params(cfg, seed=15)
        rng = np.random.default_rng(16)
        x = rng.normal(size=25).astype(np.float32)
        others = [rng.normal(size=t).astype(np.float32) for t in (25, 1, 7, 75, 25)]
        for batch in ([x, *others[:1]], [*others[1:3], x], [others[3], x, others[4], x], others + [x]):
            with nm.no_grad():
                together = enc.encode(batch, cfg, params)
            assert len(together) == len(batch)
            for signal, z in zip(batch, together):
                np.testing.assert_array_equal(z.data, enc.encode([signal], cfg, params)[0].data)


def test_forward_views_computes_first_query_once(monkeypatch):
    # the first cross-attention's query path, wq(ln_q(latents)), reads no
    # input: one layer_norm of the latents per forward, not one per encode
    params = _params(TINY, seed=15)
    windows = np.random.default_rng(17).normal(size=(3, 25)).astype(np.float32)
    padded = np.random.default_rng(18).normal(size=75).astype(np.float32)
    real_norm, calls = nm.layer_norm, []

    def counting_norm(a, gain, bias):
        calls.append(a is params["latents"])
        return real_norm(a, gain, bias)

    monkeypatch.setattr(nm, "layer_norm", counting_norm)
    for rng in (None, np.random.default_rng(0)):
        calls.clear()
        trn.forward_views(windows, padded, TINY, params, rng)
        assert sum(calls) == 1
        assert len(calls) == 1 + 4 * 2    # plus ln_kv and the FFN norm per encode


def test_encode_gradients_reach_every_parameter():
    params = _params(TINY, seed=17)
    x = np.random.default_rng(18).normal(size=20).astype(np.float32)
    grads = nm.backward(weighted_sum(enc.encode([x], TINY, params)[0], seed=1))
    assert all(p in grads and np.any(grads[p] != 0) for p in params.values())


def test_encode_gradcheck_tiny():
    # float64 finite differences on a very small encoder, through every
    # parameter.  At seed 24 one row of wk.w has ~1e-7 entries, whose
    # differences carry ~1e-4 relative roundoff at h = 1e-6; h = 1e-5 does not.
    cfg = dataclasses.replace(TINY, n_latents=2, model_dim=4, fourier_bands=1,
                              ffn_expansion=2, out_dim=2)
    base = enc.draw_params(enc.encoder_param_rows(cfg), np.random.default_rng(19), dtype=np.float64)
    names = list(base)
    shapes = [base[k].shape for k in names]
    x = np.random.default_rng(20).normal(size=6).astype(np.float64)

    def build(tensors):
        return weighted_sum(enc.encode([x], cfg, dict(zip(names, tensors)))[0], seed=2)

    for seed in (21, 22, 23, 24, 25):
        assert gradcheck(build, shapes, seed=seed, h=1e-5) < 1e-4, seed


def test_encode_gradcheck_token_width_below_model_width_with_self_layer():
    # c = 4 < d = 8 < T = 12, with a self-attention layer (c = d) after the
    # cross-attention: both uses of the one attention path, end to end.
    # The self layer's wq/wk gradients have entries near 1e-3, whose central
    # differences carry ~1e-4 relative roundoff at h = 1e-6; h = 1e-5 does not.
    cfg = dataclasses.replace(TINY, n_latents=2, model_dim=8, fourier_bands=1,
                              self_per_block=1, ffn_expansion=1, out_dim=2)
    assert cfg.token_dim == 4
    base = enc.draw_params(enc.encoder_param_rows(cfg), np.random.default_rng(32), dtype=np.float64)
    names = list(base)
    shapes = [base[k].shape for k in names]
    x = np.random.default_rng(33).normal(size=12).astype(np.float64)

    def build(tensors):
        return weighted_sum(enc.encode([x], cfg, dict(zip(names, tensors)))[0], seed=4)

    assert gradcheck(build, shapes, seed=34, h=1e-5) < 1e-4


def test_encode_deeper_layouts_run():
    for layout in ((2, 1, 0), (1, 1, 2), (2, 1, 2)):
        cfg = dataclasses.replace(TINY, depth=layout[0], cross_per_block=layout[1],
                                  self_per_block=layout[2])
        params = _params(cfg, seed=22)
        z = enc.encode([np.random.default_rng(23).normal(size=15).astype(np.float32)], cfg, params)[0]
        assert z.shape == (cfg.out_dim,)
        assert np.all(np.isfinite(z.data))


class _RecordingParams(dict):
    """A parameter dict that records every name read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@settings(max_examples=30, deadline=None)
@given(depth=st.integers(1, 2), cross=st.integers(1, 2), self_layers=st.integers(0, 2))
def test_encode_reads_and_reaches_exactly_the_declared_parameters(depth, cross, self_layers):
    # the declaration and the forward pass walk one unit list, so for any
    # layout they name the same parameters, and every one gets a gradient
    cfg = dataclasses.replace(TINY, depth=depth, cross_per_block=cross, self_per_block=self_layers,
                              n_latents=2, model_dim=4, fourier_bands=1, ffn_expansion=1, out_dim=2)
    declared = {name for name, _, _ in enc.encoder_param_rows(cfg)}
    params = _RecordingParams(_params(cfg, seed=40))
    assert set(params) == declared
    z = enc.encode([np.random.default_rng(41).normal(size=5).astype(np.float32)], cfg, params)[0]
    assert params.read == declared
    grads = nm.backward(weighted_sum(z, seed=5))
    assert {name for name, p in params.items() if p in grads} == declared


# ---------------------------------------------------------------------------
# checkpoints

_KINDS = (enc.EncoderConfig, str, int, float, bool)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = _params(TINY, seed=24)
    header = (TINY, "lf_avg_gate", 3, 5.0, True)
    p = tmp_path / "ck.bin"
    enc.save_checkpoint(p, _KINDS, header, params)
    header2, arrays = enc.load_checkpoint(p, _KINDS)
    assert tuple(header2) == header
    assert [type(v) for v in header2] == [type(v) for v in header]
    assert set(arrays) == set(params)
    for k in params:
        np.testing.assert_array_equal(arrays[k], params[k].data)


def test_checkpoint_corruption_detected(tmp_path):
    params = _params(TINY, seed=25)
    p = tmp_path / "ck.bin"
    enc.save_checkpoint(p, _KINDS, (TINY, "lf_avg_gate", 3, 5.0, True), params)
    raw = p.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(enc.CheckpointError):
        enc.load_checkpoint(bad, _KINDS)

    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(enc.CheckpointError):
        enc.load_checkpoint(bad, _KINDS)

    bad.write_bytes(raw + b"\x00\x01")
    with pytest.raises(enc.CheckpointError):
        enc.load_checkpoint(bad, _KINDS)

    version_bumped = raw[:4] + (99).to_bytes(4, "little") + raw[8:]
    bad.write_bytes(version_bumped)
    with pytest.raises(enc.CheckpointError):
        enc.load_checkpoint(bad, _KINDS)

    with pytest.raises(enc.CheckpointError):
        enc.load_checkpoint(tmp_path / "missing.bin", _KINDS)
