"""Per-layer metrics derived from one traced unit.

"Per sample" divides by the number of pipeline passes in the traced
span, i.e. `training.forward_logits` calls in either mode.  A layer the
workload never calls reads 0.  GFLOP/s figures count forward matmul
FLOPs (2mkn from operand shapes) unless the name says otherwise.
"""

from __future__ import annotations

from tracer import Tracer

# numerics functions that are not tape ops: leaf constructors, tape
# control, and composites that only call other ops.
NOT_OPS = {"parameter", "constant", "no_grad", "backward", "zero_grads", "add_n", "sub"}
SELF_TIMED_OPS = ("add", "layer_norm", "gelu", "softmax_rows", "dropout", "mul", "scale", "transpose")

MS, COUNT, RATE, RATIO = "ms", "count", "GFLOP/s", "ratio"


def layer_metrics(tr: Tracer, unit_wall_untraced: float, unit_wall_traced: float,
                  analytic_flops_per_pass: int, encode_flops) -> dict[str, tuple[float, str]]:
    """name -> (value, unit); encode_flops(n_tokens) is cost.encode_flops for the model."""
    fwd_train, fwd_eval = tr.get("training.forward_logits.train"), tr.get("training.forward_logits.eval")
    passes = fwd_train.calls + fwd_eval.calls

    def per_pass(x: float) -> float:
        return x / passes if passes else 0.0

    def per_call(x: float, calls: int) -> float:
        return x / calls if calls else 0.0

    def gflops(flops: float, seconds: float) -> float:
        return flops / seconds / 1e9 if seconds > 0 else 0.0

    out: dict[str, tuple[float, str]] = {}
    op_calls = sum(st.calls for key, st in tr.stats.items()
                   if key.count(".") == 1 and key.startswith("numerics.")
                   and key.split(".")[1] not in NOT_OPS)
    out["numerics.op_calls_per_sample"] = (per_pass(op_calls), COUNT)
    for op in SELF_TIMED_OPS:
        out[f"numerics.{op}.self_ms_per_sample"] = (per_pass(tr.get(f"numerics.{op}").self * 1e3), MS)
    mm = tr.get("numerics.matmul")
    out["numerics.matmul.calls_per_sample"] = (per_pass(mm.calls), COUNT)
    out["numerics.matmul.self_ms_per_sample"] = (per_pass(mm.self * 1e3), MS)
    out["numerics.matmul.gflops_per_s"] = (gflops(mm.flops, mm.self), RATE)
    out["numerics.backward.self_ms_per_sample"] = (per_pass(tr.get("numerics.backward").self * 1e3), MS)

    encode = tr.get("encoder.encode")
    out["encoder.encode.calls_per_sample"] = (per_pass(encode.calls), COUNT)
    out["encoder.encode.self_ms_per_sample"] = (per_pass(encode.self * 1e3), MS)
    analytic_encode = sum(calls * encode_flops(n) for n, calls in tr.encode_tokens.items())
    out["encoder.encode.gflops_per_s"] = (gflops(analytic_encode, encode.incl), RATE)
    out["encoder.fourier_encode.self_ms_per_sample"] = (
        per_pass(tr.get("encoder.fourier_encode").self * 1e3), MS)
    for block in ("cross_attention", "gated_ffn"):
        st = tr.get(f"encoder.{block}")
        out[f"encoder.{block}.ms_per_sample"] = (per_pass(st.incl * 1e3), MS)
        out[f"encoder.{block}.gflops_per_s"] = (gflops(st.flops, st.incl), RATE)
    for fn in ("save_checkpoint", "load_checkpoint"):
        st = tr.get(f"encoder.{fn}")
        out[f"encoder.{fn}.ms"] = (per_call(st.incl * 1e3, st.calls), MS)

    bp = tr.get("signal.bandpass_filter")
    out["signal.bandpass_filter.self_ms_per_call"] = (per_call(bp.self * 1e3, bp.calls), MS)
    out["signal.bandpass_filter.calls_per_sample"] = (per_pass(bp.calls), COUNT)
    ld = tr.get("signal.load_dataset")
    out["signal.load_dataset.ms"] = (per_call(ld.incl * 1e3, ld.calls), MS)

    ap = tr.get("augment.apply_augmentations")
    out["augment.apply_augmentations.self_ms_per_call"] = (per_call(ap.self * 1e3, ap.calls), MS)

    for fn in ("fuse_windows", "classify"):
        out[f"fusion.{fn}.ms_per_sample"] = (per_pass(tr.get(f"fusion.{fn}").incl * 1e3), MS)

    adam = tr.get("training.Adam.step")
    out["training.Adam.step.self_ms_per_step"] = (per_call(adam.self * 1e3, adam.calls), MS)
    out["training.preprocess.self_ms_per_sample"] = (per_pass(tr.get("training.preprocess").self * 1e3), MS)
    out["training.smoothed_ce_loss.ms_per_sample"] = (
        per_pass(tr.get("training.smoothed_ce_loss").incl * 1e3), MS)
    out["training.train.self_ms_per_sample"] = (per_pass(tr.get("training.train").self * 1e3), MS)
    for mode, st in (("train", fwd_train), ("eval", fwd_eval)):
        # per pass of that mode
        out[f"training.forward_logits.{mode}.ms_per_sample"] = (per_call(st.incl * 1e3, st.calls), MS)

    out["cost.executed_to_analytic_flops"] = (
        per_pass((fwd_train.flops + fwd_eval.flops) / analytic_flops_per_pass), RATIO)

    main = tr.get("cli.main")
    out["cli.main.self_ms"] = (per_call(main.self * 1e3, main.calls), MS)

    out["trace.overhead_ratio"] = (unit_wall_traced / unit_wall_untraced, RATIO)
    out["trace.self_coverage"] = (tr.self_total() / tr.root_wall, RATIO)
    return out
