"""Outside-in layer tracer.

For a traced run only, `Tracer.install` swaps every public function of
the package's modules (and every public method of the classes they
define) for a timing wrapper; `uninstall` puts the originals back.  No
file of the package changes, and with tracing off nothing is swapped.

Spans are aggregated in memory per key rather than stored one by one: a
key's inclusive time is the sum of its spans' durations and its self
time is that minus the part covered by child spans.  Forward matmul
FLOPs are counted from operand shapes (2mkn) and credited to every
enclosing span, so a block's achieved GFLOP/s is its matmul FLOPs over
its inclusive time.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from types import ModuleType

WRAPPED_MARK = "__perfbench_wrapped__"


class Stat:
    __slots__ = ("calls", "incl", "self", "flops")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.flops = 0


def _matmul_flops(args, kwargs) -> int:
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    m, k = a.shape if len(a.shape) == 2 else (1, a.shape[0])
    n = b.shape[1] if len(b.shape) == 2 else 1
    return 2 * m * k * n


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _attention_key(args, kwargs) -> str:
    prefix = _arg(args, kwargs, 3, "prefix")
    return "encoder.self_attention" if ".self" in prefix else "encoder.cross_attention"


def _forward_logits_key(args, kwargs) -> str:
    return "training.forward_logits." + ("train" if _arg(args, kwargs, 5, "training") else "eval")


# Keys that depend on the call's arguments.
_KEY_FUNCS = {
    "encoder.attention": _attention_key,
    "training.forward_logits": _forward_logits_key,
}


def public_callables(module: ModuleType):
    """(owner, attribute name, function, key) for everything the tracer wraps."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, f"{short}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for mname, meth in list(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    yield obj, mname, meth, f"{short}.{name}.{mname}"


def installed_wrappers(modules) -> list[str]:
    """Keys of the functions that are currently tracing wrappers."""
    return [key for _, _, fn, key in (c for m in modules for c in public_callables(m))
            if getattr(fn, WRAPPED_MARK, False)]


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.stats: dict[str, Stat] = {}
        self.encode_tokens: dict[int, int] = {}   # signal length -> encode calls
        self.root_wall = 0.0
        self._stack: list[list] = []              # per open span: [child time, flops]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module in self.modules:
            for owner, name, fn, key in list(public_callables(module)):
                self._saved.append((owner, name, fn))
                setattr(owner, name, self._wrap(fn, key))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def _stat(self, key: str) -> Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def _wrap(self, fn, key: str):
        stack, clock, stat = self._stack, time.perf_counter, self._stat
        key_func = _KEY_FUNCS.get(key)
        is_matmul = key == "numerics.matmul"
        is_encode = key == "encoder.encode"
        tokens = self.encode_tokens

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, _matmul_flops(args, kwargs) if is_matmul else 0]
            if is_encode:
                n = len(args[0])
                tokens[n] = tokens.get(n, 0) + 1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st = stat(key_func(args, kwargs) if key_func else key)
                st.calls += 1
                st.incl += dur
                st.self += dur - frame[0]
                st.flops += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    parent[1] += frame[1]

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    @contextmanager
    def root(self):
        """Open a root span; its wall time is the base of self coverage."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        frame = [0.0, 0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.root_wall += time.perf_counter() - t0
            self._stack.pop()

    # -- summaries ---------------------------------------------------------

    def get(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def self_total(self) -> float:
        return sum(st.self for st in self.stats.values())
