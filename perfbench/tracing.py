"""
Per-function call counts and self time for puzzlecalc, collected from
outside the package by wrapping its functions in place.

A function is often reachable under several names: ``cli`` imports
``structure_constants`` directly, ``pinkdots`` imports ``validate_path``,
``Poly * Poly`` dispatches through ``_Sparse.__mul__`` and its alias
``__rmul__``.  ``Tracer.install`` therefore rebinds every attribute of every
loaded ``puzzlecalc`` module (and of the owning class, for methods) that is
bound to the wrapped function object, and ``uninstall`` puts them all back.

Self time is a call's duration minus the time spent in the wrapped calls
beneath it.  Counters are aggregated in memory; nothing is written until the
caller reads them.
"""
from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

BRANCH_KINDS = ("triangle", "boring", "equivariant", "shift0", "shift1", "topk")
# the ten oracle.verify_suite sweeps, in the order verify runs them
SUITES = ("pinkdots", "dictionary", "inversion", "hall", "essential",
          "specialize", "commute", "lr", "boundary", "covers")

# (metric name, defining module, attribute path) of every wrapped function
TARGETS = (
    ("cli.main", "cli", "main"),
    ("filling.structure_constants", "filling", "structure_constants"),
    ("filling.enumerate_puzzles", "filling", "enumerate_puzzles"),
    ("filling.legal_branches", "filling", "legal_branches"),
    ("filling.branch_weight", "filling", "branch_weight"),
    ("board.validate_path", "board", "validate_path"),
    ("board.next_fill_position", "board", "next_fill_position"),
    ("board.ascii_render", "board", "ascii_render"),
    ("poly.mul", "poly", "_Sparse.__mul__"),
    ("poly.add", "poly", "_Sparse.__add__"),
    ("pinkdots.path_to_rank", "pinkdots", "path_to_rank"),
    ("pinkdots.path_codim", "pinkdots", "path_codim"),
    ("intervalrank.rank_of_matrix", "intervalrank", "rank_of_matrix"),
    ("intervalrank.essential_set", "intervalrank", "essential_set"),
    ("intervalrank.covers", "intervalrank", "covers"),
    ("intervalrank.rank_from_dots", "intervalrank", "rank_from_dots"),
    ("oracle.lr_count", "oracle", "lr_count"),
) + tuple((f"oracle.suite.{s}", "oracle", f"_suite_{s}") for s in SUITES)


def _is_one(x) -> bool:
    if isinstance(x, int):
        return x == 1
    return len(x.terms) == 1 and x.terms[0][1] == 1 and not any(x.terms[0][0])


class Tracer:
    """Wraps the TARGETS while installed (also as a context manager) and
    accumulates their counts and times across installs."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.total_ns = Counter()
        self.counts = Counter()
        self.peak_terms = 0
        self._stack: list[int] = []
        self._states: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks: extra counters, run outside the timed part of a call -------

    def _on_mul(self, args, result):
        a, b = args
        self.counts["poly.mul.term_products"] += \
            len(a.terms) * (1 if isinstance(b, int) else len(b.terms))
        if _is_one(a) or _is_one(b):
            self.counts["poly.mul.unit"] += 1
        self.peak_terms = max(self.peak_terms, len(result.terms))

    def _on_add(self, args, result):
        self.peak_terms = max(self.peak_terms, len(result.terms))

    def _on_branches(self, args, result):
        self._states.add(args[0].steps)
        for br, _ in result:
            self.counts[f"filling.branches.{br.kind}"] += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter_ns()
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                # the hook's time is charged to nobody: not to this call,
                # and not to the caller's self time either
                t2 = perf_counter_ns()
                dt = (t1 or t2) - t0
                calls[name] += 1
                total_ns[name] += dt
                self_ns[name] += dt - stack.pop()
                if stack:
                    stack[-1] += t2 - t0

        return wrapper

    def install(self):
        """Wrap every target, under every name puzzlecalc binds it to."""
        hooks = {"poly.mul": self._on_mul, "poly.add": self._on_add,
                 "filling.legal_branches": self._on_branches}
        modules = [m for key, m in sys.modules.items()
                   if key == "puzzlecalc" or key.startswith("puzzlecalc.")]
        for name, mod, path in TARGETS:
            owner = sys.modules[f"puzzlecalc.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, hooks.get(name))
            holders = modules if not outer else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._restore.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        # path states are distinct within one traced call
        self.counts["filling.distinct_states"] += len(self._states)
        self._states = set()

    def metrics(self, ops: int, passes: int) -> dict[str, tuple[float, str]]:
        """Every per-module metric, as (value, unit), averaged per operation
        (suite times per verify pass)."""
        ops = max(ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for name, _mod, _path in TARGETS:
            if name.startswith("oracle.suite."):
                out[f"{name}_s"] = (self.total_ns[name] / 1e9 / max(passes, 1), "s/pass")
                continue
            out[f"{name}.calls"] = (self.calls[name] / ops, "count/op")
            out[f"{name}.self_ms"] = (self.self_ns[name] / 1e6 / ops, "ms/op")
        muls = self.calls["poly.mul"]
        out["poly.mul.term_products"] = (self.counts["poly.mul.term_products"] / ops, "count/op")
        out["poly.mul.unit_share"] = (self.counts["poly.mul.unit"] / muls if muls else 0.0, "share")
        out["poly.peak_terms"] = (float(self.peak_terms), "count")
        for kind in BRANCH_KINDS:
            out[f"filling.branches.{kind}"] = (self.counts[f"filling.branches.{kind}"] / ops, "count/op")
        states = self.counts["filling.distinct_states"]
        lb = self.calls["filling.legal_branches"]
        out["filling.distinct_states"] = (states / ops, "count/op")
        out["filling.distinct_state_ratio"] = (states / lb if lb else 0.0, "share")
        return out
