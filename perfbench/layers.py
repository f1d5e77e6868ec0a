"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced public function, in every loaded
``jointcert`` module that binds it, by a wrapper that records calls, busy
time and the time covered by nested traced calls.  Nothing under ``src/``
changes; the spans sit at the module boundaries the benchmark calls through.
Totals stay in memory until ``metrics`` turns them into per-pass figures.
"""
import functools
import inspect
import os
import sys
from time import perf_counter

# Every public function whose time is attributed to a layer.  closed_form_behavior
# and saturation_strategy are traced only so that cli.main's self time leaves out
# the library work it calls.
TRACED = (
    "behavior.load_behavior",
    "behavior.validate_behavior",
    "behavior.save_behavior",
    "inequalities.evaluate_mn",
    "inequalities.evaluate_chain",
    "classical.enumerate_deterministic",
    "classical.strategy_to_behavior",
    "classical.saturation_strategy",
    "classical.optimize_classical",
    "quantum.quantum_behavior",
    "quantum.closed_form_behavior",
    "postselect.gap_report",
    "cli.main",
)


class LayerStats:
    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.child_s = 0.0  # part of busy_s spent inside nested traced calls
        self.bytes = 0
        self.work = 0  # restart-iterations, for the optimizer

    def as_dict(self):
        return dict(vars(self))


def _path_arg(sig, args, kwargs):
    return sig.bind(*args, **kwargs).arguments["path"]


class Tracer:
    def __init__(self):
        self.stats = {name: LayerStats() for name in TRACED}
        self._stack = []
        self._patched = []

    def _enter(self):
        self._stack.append(0.0)  # child time accumulated by this span

    def _leave(self, name, elapsed):
        child = self._stack.pop()
        stats = self.stats[name]
        stats.busy_s += elapsed
        stats.child_s += child
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, name, func):
        stats = self.stats[name]
        sig = inspect.signature(func)

        if inspect.isgeneratorfunction(func):
            # A generator's work happens in next(): time each step.
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                stats.calls += 1
                it = func(*args, **kwargs)
                while True:
                    self._enter()
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._leave(name, perf_counter() - t0)
                        return
                    self._leave(name, perf_counter() - t0)
                    yield item

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name == "behavior.load_behavior":
                stats.bytes += os.path.getsize(_path_arg(sig, args, kwargs))
            elif name == "classical.optimize_classical":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                stats.work += bound.arguments["restarts"] * bound.arguments["iterations"]
            stats.calls += 1
            self._enter()
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self._leave(name, perf_counter() - t0)
                if name == "behavior.save_behavior":
                    stats.bytes += os.path.getsize(_path_arg(sig, args, kwargs))

        return wrapper

    def install(self):
        """Wrap every traced function wherever a jointcert module binds it."""
        modules = [m for key, m in sys.modules.items() if key == "jointcert" or key.startswith("jointcert.")]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"jointcert.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def _per_call_us(stats):
    return stats.busy_s / stats.calls * 1e6 if stats.calls else 0.0


def _mb_per_s(stats):
    return stats.bytes / stats.busy_s / 1e6 if stats.busy_s else 0.0


def metrics(stats, passes, traced_wall_s, untraced_wall_s):
    """Per-layer metrics per pass of the workload, as (value, unit) pairs."""
    s = stats
    load, save = s["behavior.load_behavior"], s["behavior.save_behavior"]
    mn, chain = s["inequalities.evaluate_mn"], s["inequalities.evaluate_chain"]
    opt, cli_main = s["classical.optimize_classical"], s["cli.main"]
    return {
        "behavior.load_behavior.s": (load.busy_s / passes, "s"),
        "behavior.load_behavior.mb_per_s": (_mb_per_s(load), "MB/s"),
        "behavior.validate_behavior.s": (s["behavior.validate_behavior"].busy_s / passes, "s"),
        "behavior.save_behavior.s": (save.busy_s / passes, "s"),
        "behavior.save_behavior.mb_per_s": (_mb_per_s(save), "MB/s"),
        "behavior.bytes_read": (load.bytes / passes, "bytes"),
        "behavior.bytes_written": (save.bytes / passes, "bytes"),
        "inequalities.evaluate_mn.calls": (mn.calls / passes, "count"),
        "inequalities.evaluate_mn.us_per_call": (_per_call_us(mn), "us"),
        "inequalities.evaluate_chain.calls": (chain.calls / passes, "count"),
        "inequalities.evaluate_chain.s": (chain.busy_s / passes, "s"),
        "classical.enumerate_deterministic.s": (s["classical.enumerate_deterministic"].busy_s / passes, "s"),
        "classical.strategy_to_behavior.us_per_call": (_per_call_us(s["classical.strategy_to_behavior"]), "us"),
        "classical.optimize_classical.s": (opt.busy_s / passes, "s"),
        "classical.optimize_classical.us_per_restart_iter": (
            opt.busy_s / opt.work * 1e6 if opt.work else 0.0,
            "us",
        ),
        "quantum.quantum_behavior.us_per_call": (_per_call_us(s["quantum.quantum_behavior"]), "us"),
        "postselect.gap_report.us_per_call": (_per_call_us(s["postselect.gap_report"]), "us"),
        "cli.main.overhead_s": ((cli_main.busy_s - cli_main.child_s) / passes, "s"),
        "tracing.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    }
