"""Engine-facing test utilities shared across test modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np

import oracles
from resppain import fusion as fus
from resppain import numerics as nm


def gradcheck(build, shapes: list[tuple[int, ...]], seed: int,
              h: float = 1e-6, scale: float = 0.5) -> float:
    """Max relative error between tape gradients and central differences.

    build(list_of_tensors) -> scalar Tensor.  Parameters are float64 so
    the finite differences are trustworthy at h ~ 1e-6.
    """
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.0, scale, s) for s in shapes]

    params = [nm.parameter(a, dtype=np.float64) for a in arrays]
    grads = nm.backward(build(params))
    engine = [grads.get(p, np.zeros(p.shape)) for p in params]

    def scalar_fn(work: list[np.ndarray]) -> float:
        with nm.no_grad():
            out = build([nm.constant(w, dtype=np.float64) for w in work])
        return float(out.data)

    fd = oracles.fd_gradient(scalar_fn, arrays, h=h)
    return max(oracles.rel_err(e, f) for e, f in zip(engine, fd))


def fresh(path: Path) -> Path:
    """path, with any file there removed: on some disks rewriting an
    existing file costs a thousand times as much as writing a new one, so
    a property that writes to one path in every example writes it anew."""
    path.unlink(missing_ok=True)
    return path


def sub(a: nm.Tensor, b: nm.Tensor) -> nm.Tensor:
    """a - b, same shapes only, composed from the engine's add and scale."""
    return nm.add(a, nm.scale(b, -1.0))


def gate_routes(windows: list[nm.Tensor], z_full: nm.Tensor, params: dict) -> list[nm.Tensor]:
    """The lf_avg_gate gate's four routes: the logits of its heads over the
    windows' sum, their concatenation and z_full, then the heads' mean."""
    views = {"add": nm.add_n(windows), "concat": nm.concat_vec(windows), "full": z_full}
    heads = fus._head_logits(fus.VARIANT_SPECS["lf_avg_gate"], views, params)
    return [*heads, fus._mean(heads)]


def weighted_sum(t: nm.Tensor, seed: int = 0) -> nm.Tensor:
    """Scalar projection with fixed random weights; makes any output a loss."""
    rng = np.random.default_rng(seed)
    w = nm.constant(rng.normal(size=t.shape), dtype=t.data.dtype)
    return nm.sum_all(nm.mul(t, w))


def enumerate_params(params: dict) -> int:
    """Ground-truth count: total elements across all learnable tensors."""
    return sum(int(t.data.size) for t in params.values())
