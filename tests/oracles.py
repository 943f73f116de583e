"""Independent reference implementations used to freeze expected values.

Everything here is written directly from the mathematical definitions in
plain numpy, without importing the package's compute code, so agreement
between the two is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Literal three-loop matrix product with float64 accumulation,
    rounded once to a's dtype."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out.astype(a.dtype)


def elementwise_f64(op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """op(a, b) on operands widened to float64 (b broadcast onto a's
    trailing axis), rounded once to a's dtype."""
    a = np.asarray(a)
    with np.errstate(all="ignore"):    # overflow to inf is part of the contract
        return np.asarray(op(a.astype(np.float64), np.asarray(b, np.float64))).astype(a.dtype)


def softmax_rows_f64(x: np.ndarray) -> np.ndarray:
    """Shift-by-max row softmax computed fully in float64."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def layer_norm_f64(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Per-row normalization with biased variance, in float64."""
    x = np.asarray(x, dtype=np.float64)
    one_dim = x.ndim == 1
    if one_dim:
        x = x[None, :]
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    y = (x - mu) / np.sqrt(var + eps) * np.asarray(g, np.float64) + np.asarray(b, np.float64)
    return y[0] if one_dim else y


def gelu_f64(x: np.ndarray) -> np.ndarray:
    """Exact (erf-based) gelu in float64."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def cross_entropy_smoothed(logits: np.ndarray, target: int, smoothing: float) -> float:
    """- sum_c q_c log softmax(logits)_c with q = (1-s) one-hot + s/C."""
    logits = np.asarray(logits, dtype=np.float64)
    c = logits.size
    q = np.full(c, smoothing / c)
    q[target] += 1.0 - smoothing
    logp = logits - logits.max()
    logp = logp - np.log(np.exp(logp).sum())
    return float(-(q * logp).sum())


def attention_brute_force(latents: np.ndarray, context: np.ndarray,
                          wq: np.ndarray, bq: np.ndarray,
                          wk: np.ndarray, bk: np.ndarray,
                          wv: np.ndarray, bv: np.ndarray,
                          wo: np.ndarray, bo: np.ndarray,
                          gq: np.ndarray, bq_norm: np.ndarray,
                          gkv: np.ndarray, bkv_norm: np.ndarray) -> np.ndarray:
    """Single-head cross-attention, element-by-element in float64.

    Pre-norm on both streams, scores q.k/sqrt(d), row softmax, value mix,
    output projection, residual onto the un-normalized latents.
    """
    lat = np.asarray(latents, dtype=np.float64)
    ctx = np.asarray(context, dtype=np.float64)
    n, d = lat.shape
    t = ctx.shape[0]
    ln_lat = layer_norm_f64(lat, gq, bq_norm)
    ln_ctx = layer_norm_f64(ctx, gkv, bkv_norm)
    q = ln_lat @ np.asarray(wq, np.float64) + np.asarray(bq, np.float64)
    k = ln_ctx @ np.asarray(wk, np.float64) + np.asarray(bk, np.float64)
    v = ln_ctx @ np.asarray(wv, np.float64) + np.asarray(bv, np.float64)
    out = np.zeros((n, d))
    for i in range(n):
        scores = np.array([float(q[i] @ k[j]) / math.sqrt(d) for j in range(t)])
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        mixed = np.zeros(d)
        for j in range(t):
            mixed += w[j] * v[j]
        out[i] = mixed @ np.asarray(wo, np.float64) + np.asarray(bo, np.float64)
    return lat + out


def fourier_features(x: np.ndarray, n_bands: int, max_freq: float) -> np.ndarray:
    """Token features: [value, sin(pi f_k p)..., cos(pi f_k p)..., p]."""
    x = np.asarray(x, dtype=np.float64)
    t = x.size
    p = np.array([-1.0]) if t == 1 else np.linspace(-1.0, 1.0, t)
    freqs = np.geomspace(1.0, max_freq, n_bands)
    cols = [x]
    for f in freqs:
        cols.append(np.sin(np.pi * f * p))
    for f in freqs:
        cols.append(np.cos(np.pi * f * p))
    cols.append(p)
    return np.stack(cols, axis=1)


def fd_gradient(fn, arrays: list[np.ndarray], h: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function of float64 arrays."""
    grads = []
    for idx, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            work = [w.copy() for w in arrays]
            work[idx].reshape(-1)[i] = orig + h
            up = fn(work)
            work[idx].reshape(-1)[i] = orig - h
            down = fn(work)
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def adam_reference(grads_seq: list[dict[str, np.ndarray]],
                   init: dict[str, np.ndarray], lr: float,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> dict[str, np.ndarray]:
    """Textbook bias-corrected Adam applied to a fixed gradient sequence."""
    params = {k: np.asarray(v, np.float64).copy() for k, v in init.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    t = 0
    for grads in grads_seq:
        t += 1
        for k, g in grads.items():
            g = np.asarray(g, np.float64)
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            mhat = m[k] / (1 - beta1 ** t)
            vhat = v[k] / (1 - beta2 ** t)
            params[k] = params[k] - lr * mhat / (np.sqrt(vhat) + eps)
    return params
