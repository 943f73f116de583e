"""Tape engine: forward values against independent oracles, gradients
against central differences, and the bookkeeping contracts (dtype rules,
stale-tape detection, RNG discipline)."""

import re
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf

import oracles
from helpers import gradcheck, sub, weighted_sum
from resppain import numerics as nm


# ---------------------------------------------------------------------------
# forward values

def test_matmul_matches_triple_loop_exactly():
    # float64 accumulation rounded once must agree bit-for-bit
    # with the literal triple loop on small shapes.
    for seed in range(25):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, (5, 7)).astype(np.float32)
        b = rng.uniform(-2, 2, (7, 3)).astype(np.float32)
        got = nm.matmul(nm.constant(a), nm.constant(b)).data
        want = oracles.matmul_triple_loop(a, b)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_matmul_vector_forms():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 6)).astype(np.float32)
    v = rng.normal(size=4).astype(np.float32)
    got_vm = nm.matmul(nm.constant(v), nm.constant(m)).data
    np.testing.assert_array_equal(
        got_vm, oracles.matmul_triple_loop(v[None, :], m)[0])


def test_matmul_rejects_bad_shapes():
    a = nm.constant(np.zeros((2, 3)))
    b = nm.constant(np.zeros((4, 2)))
    with pytest.raises(nm.ShapeError):
        nm.matmul(a, b)
    with pytest.raises(nm.ShapeError):
        nm.matmul(a, nm.constant(np.zeros((2, 2, 2))))
    with pytest.raises(nm.ShapeError):   # (m,k)@(k,): the right operand must be a matrix
        nm.matmul(a, nm.constant(np.zeros(3)))


def test_mixed_dtypes_rejected():
    a = nm.constant(np.zeros(3), dtype=np.float32)
    b = nm.constant(np.zeros(3), dtype=np.float64)
    with pytest.raises(nm.ShapeError):
        nm.add(a, b)


def test_softmax_rows_sum_to_one_at_large_magnitude():
    # stability contract: magnitudes up to 1e4 keep row sums at 1.
    rng = np.random.default_rng(0)
    for mag in (1.0, 1e2, 1e4):
        x = (rng.normal(size=(6, 9)) * mag).astype(np.float32)
        p = nm.softmax_rows(nm.constant(x)).data
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_rows_matches_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 5)).astype(np.float32)
    got = nm.softmax_rows(nm.constant(x)).data
    np.testing.assert_allclose(got, oracles.softmax_rows_f64(x), atol=1e-7)
    v = rng.normal(size=5).astype(np.float32)
    got1 = nm.softmax_rows(nm.constant(v)).data
    assert got1.shape == (5,)
    np.testing.assert_allclose(got1, oracles.softmax_rows_f64(v)[0], atol=1e-7)


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 7)).astype(np.float64)
    lp = nm.log_softmax(nm.constant(x, dtype=np.float64)).data
    p = nm.softmax_rows(nm.constant(x, dtype=np.float64)).data
    np.testing.assert_allclose(np.exp(lp), p, atol=1e-12)


def test_layer_norm_matches_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 8)).astype(np.float32)
    g = rng.normal(size=8).astype(np.float32)
    b = rng.normal(size=8).astype(np.float32)
    got = nm.layer_norm(nm.constant(x), nm.constant(g), nm.constant(b)).data
    want = oracles.layer_norm_f64(x, g, b)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_layer_norm_statistics_equal_np_var_bit_for_bit():
    rng = np.random.default_rng(5)
    for shape, scale in (((1, 5), 1e-3), ((16, 32), 1.0), ((500, 14), 1e4), ((3, 4, 9), 10.0)):
        x = (rng.normal(size=shape) * scale + scale).astype(np.float32)
        g = np.ones(shape[-1], dtype=np.float32)
        x64 = x.astype(np.float64)
        mu = x64.mean(axis=-1, keepdims=True)
        want = ((x64 - mu) / np.sqrt(x64.var(axis=-1, keepdims=True) + 1e-5)).astype(np.float32)
        got = nm.layer_norm(nm.constant(x), nm.constant(g), nm.constant(0 * g)).data
        np.testing.assert_array_equal(got, want)


def test_gelu_matches_oracle():
    x = np.linspace(-4, 4, 33).astype(np.float64)
    got = nm.gelu(nm.constant(x, dtype=np.float64)).data
    np.testing.assert_allclose(got, oracles.gelu_f64(x), atol=1e-14)
    # gelu(0) = 0 and gelu approaches identity for large x
    assert got[16] == 0.0
    np.testing.assert_allclose(got[-1], 4.0, atol=2e-4)


def test_sigmoid_stable_and_correct():
    x = np.array([-1e4, -5.0, 0.0, 5.0, 1e4], dtype=np.float64)
    s = nm.sigmoid(nm.constant(x, dtype=np.float64)).data
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s[2], 0.5, atol=1e-15)
    np.testing.assert_allclose(s, 1.0 / (1.0 + np.exp(np.clip(-x, -700, 700))), atol=1e-12)


def test_matmul_bias_and_add_shape_rules():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 2)).astype(np.float32)
    w = rng.normal(size=(2, 4)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    got = nm.matmul(nm.constant(x), nm.constant(w), nm.constant(b)).data
    np.testing.assert_array_equal(got, oracles.matmul_triple_loop(x, w) + b)
    for bad in (np.zeros(3, dtype=np.float32), np.zeros((1, 4), dtype=np.float32)):
        # the message names the bias shape and the matrix it must fit
        with pytest.raises(nm.ShapeError, match=re.escape(f"{bad.shape}") + ".*" + re.escape("(2, 4)")):
            nm.matmul(nm.constant(x), nm.constant(w), nm.constant(bad))
    with pytest.raises(nm.ShapeError, match="mixed tensor dtypes"):
        nm.matmul(nm.constant(x), nm.constant(w), nm.constant(b, dtype=np.float64))
    with pytest.raises(nm.ShapeError, match="add shapes differ"):   # add takes equal shapes only
        nm.add(nm.constant(x @ w), nm.constant(b))


# ---------------------------------------------------------------------------
# native elementwise add/mul against the float64 round-trip

# float32 bit patterns built from (sign, exponent, mantissa): every pattern
# can occur, with extra weight on exponent 0 (subnormals and +-0), the
# smallest normals near 1e-38, the largest near 3e38, and 255 (inf, NaN).
_EXPONENT = st.one_of(st.integers(0, 255), st.integers(0, 2), st.integers(252, 255))
_MANTISSA = st.one_of(st.integers(0, 2 ** 23 - 1), st.sampled_from([0, 1, 2 ** 23 - 1]))
_F32_BITS = st.builds(lambda s, e, m: (s << 31) | (e << 23) | m,
                      st.integers(0, 1), _EXPONENT, _MANTISSA)


def _f32(shape):
    return hnp.arrays(np.uint32, shape, elements=_F32_BITS).map(lambda u: u.view(np.float32))


@st.composite
def _operands(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=8))
    return draw(_f32(shape)), draw(_f32(shape))


def _assert_same_bits(got: np.ndarray, want: np.ndarray):
    # bit for bit, except that any NaN matches any NaN
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.uint32)[~nan], want.view(np.uint32)[~nan])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["add", "mul"]), _operands())
def test_native_add_mul_equal_float64_round_trip(form, operands):
    a, b = operands
    op, np_op = (nm.mul, np.multiply) if form == "mul" else (nm.add, np.add)
    with np.errstate(all="ignore"):
        got = op(nm.constant(a), nm.constant(b)).data
    _assert_same_bits(got, oracles.elementwise_f64(np_op, a, b))


def _finite_f32(shape):
    return hnp.arrays(np.float32, shape, elements=st.floats(width=32, allow_nan=False, allow_infinity=False))


@st.composite
def _affine_operands(draw):
    m, k, n = (draw(st.integers(1, 8)) for _ in range(3))
    x_shape = draw(st.sampled_from([(m, k), (k,)]))
    return draw(_finite_f32(x_shape)), draw(_finite_f32((k, n))), draw(_finite_f32((n,)))


@settings(max_examples=300, deadline=None)
@given(_affine_operands())
def test_matmul_bias_add_is_native_and_equals_float64_round_trip(operands):
    x, w, b = (nm.constant(o) for o in operands)
    with np.errstate(all="ignore"):
        got = nm.matmul(x, w, b).data
        product = nm.matmul(x, w).data
        _assert_same_bits(got, product + b.data)
    _assert_same_bits(got, oracles.elementwise_f64(np.add, product, b.data))


def test_scale_keeps_float64_path_where_native_differs():
    # 1/sqrt(32) is the attention score scale at model width 32
    s = 1.0 / np.sqrt(32.0)
    x = np.array([0x3F5A63DC], dtype=np.uint32).view(np.float32)    # 0.85308623...
    f64_path = oracles.elementwise_f64(np.multiply, x, s)
    assert x * np.float32(s) != f64_path                             # native would round differently
    _assert_same_bits(nm.scale(nm.constant(x), s).data, f64_path)


def test_shape_plumbing_forward():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    np.testing.assert_array_equal(nm.transpose(nm.constant(a)).data, a.T)
    v1 = nm.constant(np.array([1.0, 2.0], dtype=np.float32))
    v2 = nm.constant(np.array([3.0], dtype=np.float32))
    np.testing.assert_array_equal(nm.concat_vec([v1, v2]).data,
                                  np.array([1, 2, 3], dtype=np.float32))
    rows = [nm.constant(np.array([1.0, 2.0], dtype=np.float32)),
            nm.constant(np.array([3.0, 4.0], dtype=np.float32))]
    np.testing.assert_array_equal(nm.stack_rows(rows).data,
                                  np.array([[1, 2], [3, 4]], dtype=np.float32))
    block = nm.constant(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=np.float32))
    for bad in ([block], [block, rows[0]], [rows[0], block], [v1, v2]):
        with pytest.raises(nm.ShapeError):
            nm.stack_rows(bad)
    np.testing.assert_allclose(nm.mean_axis0(nm.constant(a)).data, a.mean(axis=0), atol=1e-7)
    np.testing.assert_allclose(float(nm.sum_all(nm.constant(a)).data), a.sum(dtype=np.float64),
                               atol=1e-6)
    assert nm.sum_all(nm.constant(a)).shape == ()


# ---------------------------------------------------------------------------
# gradients (float64 parameters, central differences)

TOL = 1e-6


def test_grad_matmul():
    err = gradcheck(lambda p: weighted_sum(nm.matmul(p[0], p[1])),
                    [(4, 5), (5, 3)], seed=10)
    assert err < TOL


def test_grad_matmul_vector_forms():
    err = gradcheck(lambda p: weighted_sum(nm.matmul(p[0], p[1])), [(5,), (5, 3)], seed=11)
    assert err < TOL


def test_grad_matmul_bias_and_elementwise():
    err = gradcheck(lambda p: weighted_sum(nm.matmul(p[0], p[1], p[2])), [(4, 5), (5, 3), (3,)], seed=13)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.matmul(p[0], p[1], p[2])), [(5,), (5, 3), (3,)], seed=12)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.mul(p[0], p[1])), [(4, 3), (4, 3)], seed=14)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(sub(nm.scale(p[0], 1.7), p[1])),
                    [(2, 5), (2, 5)], seed=15)
    assert err < TOL


def test_grad_nonlinearities():
    err = gradcheck(lambda p: weighted_sum(nm.gelu(p[0])), [(4, 4)], seed=16)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.sigmoid(p[0])), [(7,)], seed=17)
    assert err < TOL


def test_grad_softmax_and_log_softmax():
    err = gradcheck(lambda p: weighted_sum(nm.softmax_rows(p[0])), [(3, 6)], seed=18)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.softmax_rows(p[0])), [(6,)], seed=19)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.log_softmax(p[0])), [(3, 6)], seed=20)
    assert err < TOL


def test_grad_layer_norm_all_inputs():
    err = gradcheck(lambda p: weighted_sum(nm.layer_norm(p[0], p[1], p[2])),
                    [(4, 6), (6,), (6,)], seed=21)
    assert err < 1e-5


def test_grad_shape_plumbing():
    err = gradcheck(lambda p: weighted_sum(nm.transpose(p[0])), [(3, 5)], seed=22)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.concat_vec([p[0], p[1]])), [(4,), (3,)], seed=23)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.stack_rows([p[0], p[1]])), [(4,), (4,)], seed=24)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.mean_axis0(p[0])), [(5, 3)], seed=25)
    assert err < TOL
    err = gradcheck(lambda p: nm.sum_all(p[0]), [(4, 4)], seed=26)
    assert err < TOL
    err = gradcheck(lambda p: weighted_sum(nm.add_const(p[0], 2.5)), [(3, 3)], seed=27)
    assert err < TOL


def test_grad_dropout_fixed_mask():
    # Fresh generator with the same seed on every call keeps the mask
    # fixed, so finite differences see a deterministic function.
    def build(p):
        rng = np.random.default_rng(99)
        return weighted_sum(nm.dropout(p[0], 0.4, rng))

    err = gradcheck(build, [(8, 8)], seed=28)
    assert err < TOL


def test_grad_straight_through_is_identity():
    rng = np.random.default_rng(29)
    soft = nm.parameter(rng.normal(size=5), dtype=np.float64)
    hard = np.zeros(5)
    hard[2] = 1.0
    out = nm.straight_through(soft, hard)
    np.testing.assert_array_equal(out.data, hard)
    c = rng.normal(size=5)
    grads = nm.backward(nm.sum_all(nm.mul(out, nm.constant(c, dtype=np.float64))))
    np.testing.assert_allclose(grads[soft], c, atol=1e-12)


def test_grad_accumulates_over_reused_leaf():
    # One leaf feeding two branches gets the sum of both branch gradients.
    x = nm.parameter(np.array([1.0, 2.0]), dtype=np.float64)
    loss = nm.sum_all(nm.add(nm.scale(x, 2.0), nm.scale(x, 3.0)))
    np.testing.assert_allclose(nm.backward(loss)[x], [5.0, 5.0], atol=1e-12)


# ---------------------------------------------------------------------------
# random op graphs

# op name -> one graph step on its operands; rng draws the step's constant,
# scale or dropout mask
_GRAPH_OPS = {
    "matmul": lambda x, rng: nm.matmul(*x),
    "add": lambda x, rng: nm.add(*x),
    "mul": lambda x, rng: nm.mul(*x),
    "scale": lambda x, rng: nm.scale(x[0], rng.uniform(-2.0, 2.0)),
    "add_const": lambda x, rng: nm.add_const(x[0], rng.normal(size=x[0].shape)),
    "transpose": lambda x, rng: nm.transpose(x[0]),
    "stack_rows": lambda x, rng: nm.stack_rows(x),
    "concat_vec": lambda x, rng: nm.concat_vec(x),
    "mean_axis0": lambda x, rng: nm.mean_axis0(x[0]),
    "sum_all": lambda x, rng: nm.sum_all(x[0]),
    "gelu": lambda x, rng: nm.gelu(x[0]),
    "sigmoid": lambda x, rng: nm.sigmoid(x[0]),
    "softmax_rows": lambda x, rng: nm.softmax_rows(x[0]),
    "log_softmax": lambda x, rng: nm.log_softmax(x[0]),
    "layer_norm": lambda x, rng: nm.layer_norm(*x),
    "dropout": lambda x, rng: nm.dropout(x[0], 0.3, rng),
}


def _apply(op: str, x: list, step: int) -> nm.Tensor:
    """One graph step, seeded by its index alone, so every replay of a
    graph computes the same function."""
    return _GRAPH_OPS[op](x, np.random.default_rng(step))


def _operand_choices(op: str, shapes: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Every operand index tuple of the pool that op accepts."""
    idx = range(len(shapes))
    pairs = [(i, j) for i in idx for j in idx]
    if op == "matmul":   # with or without a bias
        products = [(i, j) for i, j in pairs if len(shapes[i]) in (1, 2) and len(shapes[j]) == 2
                    and shapes[i][-1] == shapes[j][0]]
        return products + [(i, j, k) for i, j in products for k in idx if shapes[k] == shapes[j][1:]]
    if op in ("add", "mul"):
        return [(i, j) for i, j in pairs if shapes[i] == shapes[j]]
    if op == "stack_rows":
        return [(i, j) for i, j in pairs if len(shapes[i]) == 1 and shapes[i] == shapes[j]]
    if op == "concat_vec":
        return [(i, j) for i, j in pairs if len(shapes[i]) == len(shapes[j]) == 1]
    if op == "layer_norm":
        return [(i, j, k) for i, j in pairs for k in idx
                if len(shapes[i]) >= 1 and shapes[j] == shapes[k] == shapes[i][-1:]]
    if op in ("transpose", "mean_axis0"):
        return [(i,) for i in idx if len(shapes[i]) == 2]
    if op in ("softmax_rows", "log_softmax"):
        return [(i,) for i in idx if len(shapes[i]) >= 1]
    return [(i,) for i in idx]


@st.composite
def _op_graphs(draw):
    """(leaf shapes, constants, steps, seed): each step is (op, operand
    indices) over the pool of leaves, one fixed constant per leaf shape,
    and earlier results."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    leaves = [(n, m), (m, n), (m,), (n,)]
    constants = [nm.constant(np.random.default_rng(k).normal(size=s), dtype=np.float64)
                 for k, s in enumerate(leaves)]
    pool = [nm.constant(np.zeros(s), dtype=np.float64) for s in leaves] + constants
    steps = []
    for _ in range(draw(st.integers(2, 8))):
        op = draw(st.sampled_from(list(_GRAPH_OPS)))
        choices = _operand_choices(op, [t.shape for t in pool])
        if choices:
            args = draw(st.sampled_from(choices))
            pool.append(_apply(op, [pool[i] for i in args], len(steps)))
            steps.append((op, args))
    return leaves, constants, steps, draw(st.integers(0, 2 ** 16))


# derandomized: central differences carry ~1e-9 absolute roundoff, so a
# gradient entry that cancels to ~1e-5 by chance (about one graph in 5,000)
# reads ~1e-4 relative error; a fixed example sequence keeps that from flaking
@settings(max_examples=200, deadline=None, derandomize=True)
@given(_op_graphs())
def test_random_op_graphs_pass_gradcheck(graph):
    # Every node, leaves included, also enters the loss through its own
    # random weights: each interior node fans out to its consumers and the
    # loss, each leaf is read at least twice, and no leaf's gradient is
    # zero by construction (a per-row shift before softmax_rows, say,
    # would make it pure finite-difference roundoff).
    leaves, constants, steps, seed = graph

    def build(tensors):
        pool = [*tensors, *constants]
        for k, (op, args) in enumerate(steps):
            pool.append(_apply(op, [pool[i] for i in args], k))
        return nm.add_n(weighted_sum(t, seed=k) for k, t in enumerate(pool))

    assert gradcheck(build, leaves, seed=seed) < 1e-5
    grads = nm.backward(build([nm.parameter(np.ones(s), dtype=np.float64) for s in leaves]))
    assert len(grads) == len(leaves) and not any(c in grads for c in constants)


# ---------------------------------------------------------------------------
# stochastic op statistics

def test_dropout_statistics():
    rng = np.random.default_rng(123)
    x = nm.constant(np.ones(100_000, dtype=np.float32))
    y = nm.dropout(x, 0.3, rng).data
    zero_frac = float((y == 0).mean())
    assert abs(zero_frac - 0.3) < 0.01
    kept = y[y != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-6)
    np.testing.assert_allclose(y.mean(), 1.0, atol=0.01)


def test_dropout_without_rng_is_identity():
    x = nm.constant(np.arange(10, dtype=np.float32))
    assert nm.dropout(x, 0.5, None) is x


# ---------------------------------------------------------------------------
# tape bookkeeping

def test_backward_requires_scalar():
    x = nm.parameter(np.ones(3))
    with pytest.raises(nm.ShapeError):
        nm.backward(nm.scale(x, 2.0))


def test_double_backward_raises_tape_error():
    x = nm.parameter(np.ones(3), dtype=np.float64)
    loss = nm.sum_all(nm.mul(x, x))
    nm.backward(loss)
    with pytest.raises(nm.TapeError):
        nm.backward(loss)


def test_consumed_intermediate_reuse_raises():
    x = nm.parameter(np.ones(3), dtype=np.float64)
    mid = nm.mul(x, x)
    nm.backward(nm.sum_all(mid))
    stale = nm.sum_all(mid)   # builds on a node whose closure is gone
    with pytest.raises(nm.TapeError):
        nm.backward(stale)


def test_backward_releases_the_graph_behind_a_held_loss():
    # a loss still held after backward keeps no intermediate alive
    x = nm.parameter(np.ones(3), dtype=np.float64)
    mid = nm.mul(x, x)
    loss = nm.sum_all(mid)
    ref = weakref.ref(mid.data)
    del mid
    assert ref() is not None
    grads = nm.backward(loss)
    assert ref() is None
    assert loss._consumed and loss._bwd is None and loss._parents == ()
    np.testing.assert_allclose(grads[x], [2.0, 2.0, 2.0], atol=1e-12)


def test_backward_computes_no_gradient_for_a_constant_operand(monkeypatch):
    # Spy on every backward closure: none may return a gradient for an
    # operand that needs none, as the constant tokens under ln_kv need none.
    sent_to_constants, calls = [], []
    record = nm._result

    def spying_result(data, parents, bwd):
        def spied(g):
            out = bwd(g)
            calls.append(len(parents))
            sent_to_constants.extend(pg for p, pg in zip(parents, out)
                                     if not p.requires_grad and pg is not None)
            return out
        return record(data, parents, spied)

    monkeypatch.setattr(nm, "_result", spying_result)
    rng = np.random.default_rng(5)
    x = nm.constant(rng.normal(size=(6, 4)), dtype=np.float64)
    gain = nm.parameter(rng.normal(size=4), dtype=np.float64)
    bias = nm.parameter(rng.normal(size=4), dtype=np.float64)
    grads = nm.backward(nm.sum_all(nm.layer_norm(nm.layer_norm(x, gain, bias), gain, bias)))
    assert calls == [1, 3, 3]
    assert sent_to_constants == []
    assert set(grads) == {gain, bias}


def test_backward_gives_a_bare_parameter_its_unit_gradient_on_every_call():
    # a bare parameter is a leaf, never consumed, and a call keeps nothing
    # for the next: each returns the unit gradient afresh
    x = nm.parameter(np.array(2.0), dtype=np.float64)
    for _ in range(3):
        grads = nm.backward(x)
        assert list(grads) == [x]
        np.testing.assert_array_equal(grads[x], 1.0)


def test_leaves_fed_by_one_add_get_equal_read_only_gradients():
    a = nm.parameter(np.array([1.0, -2.0]), dtype=np.float64)
    b = nm.parameter(np.array([3.0, 0.5]), dtype=np.float64)
    grads = nm.backward(nm.sum_all(nm.add(a, b)))
    np.testing.assert_array_equal(grads[a], [1.0, 1.0])
    np.testing.assert_array_equal(grads[b], grads[a])
    for leaf in (a, b):
        with pytest.raises(ValueError):
            grads[leaf][0] = 7.0
    np.testing.assert_array_equal(grads[b], [1.0, 1.0])


def test_backward_gives_no_key_to_a_parameter_the_loss_does_not_reach():
    x = nm.parameter(np.ones(3), dtype=np.float64)
    unused = nm.parameter(np.ones(3), dtype=np.float64)
    grads = nm.backward(nm.sum_all(nm.scale(x, 2.0)))
    assert list(grads) == [x] and unused not in grads
    np.testing.assert_allclose(grads[x], [2.0, 2.0, 2.0], atol=1e-12)


def test_no_grad_blocks_recording():
    x = nm.parameter(np.ones(3), dtype=np.float64)
    with nm.no_grad():
        loss = nm.sum_all(nm.mul(x, x))
    assert not loss.requires_grad
    with pytest.raises(nm.TapeError):
        nm.backward(loss)


def test_no_grad_is_local_to_its_thread():
    # thread A holds no_grad() open while thread B records a graph and
    # backpropagates through it; B's tape must be live all the while
    inside, done = threading.Event(), threading.Event()
    recorded = {}

    def hold_no_grad():
        with nm.no_grad():
            inside.set()
            done.wait(timeout=30)
            recorded["a"] = nm.mul(x, x).requires_grad

    def record_and_backward():
        try:
            recorded["a_inside"] = inside.wait(timeout=30)
            loss = nm.sum_all(nm.mul(x, nm.scale(x, 3.0)))
            recorded["b"] = loss.requires_grad
            recorded["grads"] = nm.backward(loss)
        finally:
            done.set()

    x = nm.parameter(np.array([1.0, -2.0]), dtype=np.float64)
    threads = [threading.Thread(target=hold_no_grad), threading.Thread(target=record_and_backward)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert recorded["a_inside"]
    assert recorded["a"] is False
    assert recorded["b"] is True
    np.testing.assert_allclose(recorded["grads"][x], [6.0, -12.0], atol=1e-12)
    assert nm.mul(x, x).requires_grad      # and this thread never left recording


def test_tensor_data_is_immutable():
    x = nm.parameter(np.ones(3))
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_default_dtype_is_float32():
    assert nm.parameter([1.0, 2.0]).data.dtype == np.float32
    assert nm.parameter([1.0], dtype=np.float64).data.dtype == np.float64


# ---------------------------------------------------------------------------
# ownership: adopted results, copied inputs, lean closures

def _every_op_output():
    rng = np.random.default_rng(40)
    m = nm.parameter(rng.normal(size=(3, 4)))
    row = nm.parameter(rng.normal(size=(1, 4)))
    v = nm.parameter(rng.normal(size=4))
    w = nm.parameter(rng.normal(size=(4, 4)))
    g, b = nm.parameter(np.ones(4)), nm.parameter(np.zeros(4))
    return {
        "matmul": nm.matmul(m, nm.transpose(m)), "add": nm.add(m, m), "bias": nm.matmul(m, w, b),
        "add_n": nm.add_n([v, v, v]), "sub": sub(v, v), "mul": nm.mul(m, m),
        "scale": nm.scale(m, 0.3), "add_const": nm.add_const(m, 1.5),
        "transpose": nm.transpose(m), "transpose_row": nm.transpose(row),
        "concat_vec": nm.concat_vec([v, v]), "stack_rows": nm.stack_rows([v, v]),
        "mean_axis0": nm.mean_axis0(m), "sum_all": nm.sum_all(m), "gelu": nm.gelu(m),
        "sigmoid": nm.sigmoid(m), "softmax_rows": nm.softmax_rows(m),
        "log_softmax": nm.log_softmax(v), "layer_norm": nm.layer_norm(m, g, b),
        "dropout": nm.dropout(m, 0.5, np.random.default_rng(0)),
        "straight_through": nm.straight_through(v, np.ones(4)),
    }


def test_every_op_output_is_read_only_and_contiguous():
    for name, out in _every_op_output().items():
        assert not out.data.flags.writeable, name
        assert out.data.flags.c_contiguous, name
        with pytest.raises(ValueError):
            out.data[...] = 0.0


@pytest.mark.parametrize("make", [
    nm.parameter,
    nm.constant,
    lambda buf: nm.straight_through(nm.parameter(np.zeros(buf.shape)), buf),
])
def test_caller_buffers_are_copied_not_frozen(make):
    base = np.arange(12, dtype=np.float32).reshape(3, 4)
    for buf in (base, base[:, ::2], base[1]):    # contiguous, strided, row view
        t = make(buf)
        assert buf.flags.writeable
        assert not np.shares_memory(t.data, buf)
        before = t.data.copy()
        buf[...] = -1.0
        np.testing.assert_array_equal(t.data, before)
        base[...] = np.arange(12, dtype=np.float32).reshape(3, 4)


def _closure_arrays(t: nm.Tensor) -> list[np.ndarray]:
    return [c.cell_contents for c in t._bwd.__closure__ or ()
            if isinstance(c.cell_contents, np.ndarray)]


def test_backward_closures_hold_no_float64_operand_copies():
    rng = np.random.default_rng(41)
    a = nm.parameter(rng.normal(size=(6, 5)))
    b = nm.parameter(rng.normal(size=(5, 4)))
    prod = nm.matmul(a, b)
    assert prod.dtype == np.float32
    assert not [x for x in _closure_arrays(prod) if x.dtype == np.float64]
    act = nm.gelu(prod)
    wide = [x for x in _closure_arrays(act) if x.dtype == np.float64]
    # gelu keeps exactly one float64 array, Phi(x), which costs an erf to
    # recompute; the widened operand itself is rebuilt when backward runs
    x64 = prod.data.astype(np.float64)
    assert len(wide) == 1
    np.testing.assert_array_equal(wide[0], 0.5 * (1.0 + erf(x64 / np.sqrt(2.0))))
