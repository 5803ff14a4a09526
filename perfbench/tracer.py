"""Span tracer installed around osp_lab's public names from outside the program.

``Tracer.install`` replaces each traced name at the module or class attribute
where callers look it up, and ``uninstall`` puts the originals back; the
program's files are never touched.  A span's self time is its duration minus
the time covered by its child spans, so the self times of all spans plus the
untraced remainder (``trace.other_s``) add up to the traced wall time.

Layers and where they are wrapped:

- ``saddle_solver.round``: ``solve_saddle`` as imported by ``osp_algorithms``,
  ``matrix_games`` and ``knapsack``, counted only when called from an
  algorithm step (the r* solve in ``knapsack`` is not a round);
- ``saddle_solver.hindsight``: ``solve_saddle`` as imported by
  ``metrics_harness``;
- ``saddle_solver.certify``: ``saddle_solver.gap_estimate``, which
  ``_certify`` calls through the module global;
- ``geometry.project``: every ``project`` defined by a ``FeasibleSet`` class;
- ``payoffs.operator`` (count only): ``SumPayoff.grad_x`` / ``grad_y``;
- ``payoffs.sum_add``: ``SumPayoff.add``;
- ``knapsack.envelope``, ``knapsack.env_step``, ``knapsack.r_star``:
  ``KnapsackAggregate.envelope_argmin``, ``KnapsackEnvironment.step`` and
  ``benchmark_r_star`` as imported by ``metrics_harness``;
- ``algo_step``: ``step`` of every algorithm class (those with an
  ``algorithm_id``) in ``osp_algorithms``, ``matrix_games`` and ``knapsack``;
- ``metrics_harness.run_single`` and ``metrics_harness.accumulate``
  (``RestrictionAccumulator.add``).

A name that a later version of the program no longer has is skipped and
listed in ``missing``; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

ALGORITHM_MODULES = ("osp_algorithms", "matrix_games", "knapsack")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []  # open spans as [name, child seconds]
        self.round_iters: list[int] = []
        self.round_exhausted = 0
        self.hindsight: list[tuple[float, int, bool]] = []  # (gap, iterations, uncertified)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, parent=None, keep_durations=False, on_result=None):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            top = stack[-1][0] if stack else None
            if top == name or (parent is not None and top != parent):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[1]
                if keep_durations:
                    stats.durations.append(dt)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, path: str, make) -> None:
        """Wrap the attribute at dotted ``path`` below ``owner`` (a module or class)."""
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            self.missing.append(path)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- per-call records -----------------------------------------------------

    @staticmethod
    def _cfg(args, kwargs):
        return args[3] if len(args) > 3 else kwargs.get("cfg")

    def _on_round(self, args, kwargs, sol):
        self.round_iters.append(int(sol.iterations))
        cfg = self._cfg(args, kwargs)
        if cfg is not None and sol.iterations >= cfg.max_iters and sol.gap > cfg.tol_gap:
            self.round_exhausted += 1

    def _on_hindsight(self, args, kwargs, sol):
        cfg = self._cfg(args, kwargs)
        uncertified = cfg is not None and sol.iterations >= cfg.max_iters and sol.gap > cfg.tol_gap
        self.hindsight.append((float(sol.gap), int(sol.iterations), bool(uncertified)))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        mod = {
            m: importlib.import_module(f"osp_lab.{m}")
            for m in ("geometry", "payoffs", "saddle_solver", "metrics_harness") + ALGORITHM_MODULES
        }
        for m in ALGORITHM_MODULES:
            self._patch(
                mod[m],
                "solve_saddle",
                lambda f: self._span(
                    "saddle_solver.round", f, parent="algo_step", keep_durations=True, on_result=self._on_round
                ),
            )
            for cls in _classes(mod[m]):
                if "algorithm_id" in cls.__dict__ and "step" in cls.__dict__:
                    self._patch(cls, "step", lambda f: self._span("algo_step", f, keep_durations=True))
        for cls in _classes(mod["geometry"]):
            if "project" in cls.__dict__ and cls.__name__ != "FeasibleSet":
                self._patch(cls, "project", lambda f: self._span("geometry.project", f))
        spans = (
            ("metrics_harness", "solve_saddle", "saddle_solver.hindsight", self._on_hindsight),
            ("metrics_harness", "run_single", "metrics_harness.run_single", None),
            ("metrics_harness", "benchmark_r_star", "knapsack.r_star", None),
            ("metrics_harness", "RestrictionAccumulator.add", "metrics_harness.accumulate", None),
            ("saddle_solver", "gap_estimate", "saddle_solver.certify", None),
            ("payoffs", "SumPayoff.add", "payoffs.sum_add", None),
            ("knapsack", "KnapsackAggregate.envelope_argmin", "knapsack.envelope", None),
            ("knapsack", "KnapsackEnvironment.step", "knapsack.env_step", None),
        )
        for m, path, name, on_result in spans:
            self._patch(mod[m], path, lambda f, n=name, r=on_result: self._span(n, f, on_result=r))
        for path in ("SumPayoff.grad_x", "SumPayoff.grad_y"):
            self._patch(mod["payoffs"], path, lambda f: self._counter("payoffs.operator", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def _get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of one traced pass whose wall time was wall_s."""
        rnd = self._get("saddle_solver.round")
        step = self._get("algo_step")
        r_star = self._get("knapsack.r_star")
        iters = np.asarray(self.round_iters, dtype=float)
        gaps = [g for g, _, _ in self.hindsight]
        out = {
            "saddle_solver.round.calls": rnd.calls,
            "saddle_solver.round.self_s": rnd.self_s,
            "saddle_solver.round.us_p50": _quantile(rnd.durations, 0.5) * 1e6,
            "saddle_solver.round.us_p99": _quantile(rnd.durations, 0.99) * 1e6,
            "saddle_solver.round.iters_p50": _quantile(iters, 0.5),
            "saddle_solver.round.iters_p99": _quantile(iters, 0.99),
            "saddle_solver.round.noniter_frac": float(np.mean(iters == 0)) if iters.size else 0.0,
            "saddle_solver.round.budget_exhausted": self.round_exhausted,
            "saddle_solver.certify.calls": self._get("saddle_solver.certify").calls,
            "saddle_solver.certify.self_s": self._get("saddle_solver.certify").self_s,
            "saddle_solver.hindsight.calls": len(self.hindsight),
            "saddle_solver.hindsight.s": self._get("saddle_solver.hindsight").total_s,
            "saddle_solver.hindsight.iters": sum(it for _, it, _ in self.hindsight),
            "saddle_solver.hindsight.gap_max": max(gaps) if gaps else 0.0,
            "saddle_solver.hindsight.uncertified": sum(u for _, _, u in self.hindsight),
            "geometry.project.calls": self._get("geometry.project").calls,
            "geometry.project.self_s": self._get("geometry.project").self_s,
            "payoffs.operator.calls": self.counts.get("payoffs.operator", 0),
            "payoffs.sum_add.calls": self._get("payoffs.sum_add").calls,
            "payoffs.sum_add.self_s": self._get("payoffs.sum_add").self_s,
            "knapsack.envelope.calls": self._get("knapsack.envelope").calls,
            "knapsack.envelope.self_s": self._get("knapsack.envelope").self_s,
            "knapsack.env_step.calls": self._get("knapsack.env_step").calls,
            "knapsack.env_step.self_s": self._get("knapsack.env_step").self_s,
            "knapsack.r_star_s": r_star.total_s / r_star.calls if r_star.calls else 0.0,
            "algo_step.calls": step.calls,
            "algo_step.self_s": step.self_s,
            "algo_step.us_p50": _quantile(step.durations, 0.5) * 1e6,
            "algo_step.us_p99": _quantile(step.durations, 0.99) * 1e6,
            "metrics_harness.run_single.self_s": self._get("metrics_harness.run_single").self_s,
            "metrics_harness.accumulate.calls": self._get("metrics_harness.accumulate").calls,
            "metrics_harness.accumulate.self_s": self._get("metrics_harness.accumulate").self_s,
            "trace.other_s": wall_s - sum(s.self_s for s in self.stats.values()),
        }
        return {k: float(v) for k, v in out.items()}


def _classes(module):
    return [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]


def _quantile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.quantile(values, q)) if values.size else 0.0
