"""Output checks for benchmark runs.

Each check takes a seed-run (``RunResult``) and returns a list of failure
messages; an empty list means the run passed.  The checks read only the
public fields of the result and re-derive every invariant with numpy, so a
program change cannot pass them by changing a helper they share.
"""

from __future__ import annotations

import math

import numpy as np

MEMBERSHIP_TOL = 1e-9


def inside(dset, Z: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
    """Every row of Z lies in dset (a box, a product [0, u_i], or a simplex
    with optional floor theta)."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != dset.dimension or not np.all(np.isfinite(Z)):
        return False
    if hasattr(dset, "upper"):
        lower = getattr(dset, "lower", np.zeros(dset.dimension))
        return bool(np.all(Z >= lower - tol) and np.all(Z <= dset.upper + tol))
    floor = float(getattr(dset, "theta", 0.0))
    return bool(np.all(Z >= floor - tol) and np.all(np.abs(Z.sum(axis=1) - 1.0) <= tol))


def check_run(run, X, Y, T: int, tol_gap: float, instance=None) -> list[str]:
    """Finite regrets, T rounds played inside X x Y, every round's gap
    certified unless counted as budget-exceeded, and (knapsack runs) the
    budget-accounting invariants."""
    fails = []
    rep, tr = run.report, run.trace
    for key in ("sp_regret", "ind_regret_x", "ind_regret_y", "hindsight_value"):
        if not math.isfinite(float(getattr(rep, key))):
            fails.append(f"{key} is not finite")
    if len(tr.payoff_values) != T or not np.all(np.isfinite(tr.payoff_values)):
        fails.append("payoff series is not T finite values")
    if not inside(X, tr.xs):
        fails.append("an x action lies outside X")
    if not inside(Y, tr.ys):
        fails.append("a y action lies outside Y")
    gaps = np.asarray(tr.solver_gaps, dtype=float)
    over = int(np.count_nonzero(~(gaps <= tol_gap)))
    if over > run.budget_exceeded_rounds:
        fails.append(
            f"{over} rounds with gap > {tol_gap:g} but only "
            f"{run.budget_exceeded_rounds} counted as budget-exceeded"
        )
    if instance is not None:
        fails.extend(check_budget_accounting(tr, instance))
    return fails


def check_budget_accounting(tr, instance) -> list[str]:
    """Reward credited exactly while the running consumption is within
    budget, a monotone violation flag, and the pay-per-overage bound."""
    fails = []
    cons = np.asarray(tr.consumptions, dtype=float)
    within = np.all(np.cumsum(cons, axis=0) <= instance.b + 1e-12, axis=1)
    ever_violated = ~np.minimum.accumulate(within)
    expected = np.where(ever_violated, 0.0, tr.reward_values)
    if not np.allclose(expected, tr.rewards_collected, rtol=0.0, atol=1e-9):
        fails.append("collected reward disagrees with the budget indicator")
    flags = np.asarray(tr.violated_flags, dtype=bool)
    if np.any(flags[:-1] & ~flags[1:]):
        fails.append("violation flag is not monotone")
    slack = instance.b / instance.T * cons.shape[0] - cons.sum(axis=0)
    bound = float(np.sum(tr.reward_values)) + float(np.minimum(slack * instance.y_max, 0.0).sum())
    if float(np.sum(tr.rewards_collected)) < bound - 1e-9:
        fails.append("collected reward is below the pay-per-overage bound")
    return fails


def regret_values(run) -> dict:
    rep = run.report
    out = {
        "sp_regret": float(rep.sp_regret),
        "ind_regret_x": float(rep.ind_regret_x),
        "ind_regret_y": float(rep.ind_regret_y),
    }
    if "knapsack_regret" in rep.extras:
        out["knapsack_regret"] = float(rep.extras["knapsack_regret"])
    return out


def check_reference(run, reference: dict, atol: float, rtol: float) -> list[str]:
    """Every recorded regret reproduced within atol + rtol * |reference|."""
    got = regret_values(run)
    fails = []
    for key, ref in reference.items():
        val = got.get(key)
        if val is None or not abs(val - ref) <= atol + rtol * abs(ref):
            fails.append(f"{key} = {val!r} differs from reference {ref!r} (atol {atol:g})")
    return fails


# RoundTrace fields that a rerun must reproduce; timings are left out.
TRACE_FIELDS = (
    "xs",
    "ys",
    "payoff_values",
    "solver_gaps",
    "sampled_i",
    "sampled_j",
    "observed_entries",
    "rewards_collected",
    "reward_values",
    "consumptions",
    "violated_flags",
    "final_x",
    "final_y",
)


def _fingerprint(run) -> list:
    parts = [
        None if getattr(run.trace, f, None) is None else np.asarray(getattr(run.trace, f)).tobytes()
        for f in TRACE_FIELDS
    ]
    parts.append(np.array(list(regret_values(run).values())).tobytes())
    return parts


def same_bits(run_a, run_b) -> bool:
    """Trace arrays and regrets of two runs agree bit for bit."""
    return _fingerprint(run_a) == _fingerprint(run_b)


class Tally:
    """Seed-runs attempted and failed, rounds played and budget-exceeded."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.uncertified = 0
        self.messages: list[str] = []

    def add(self, label: str, run, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(f"{label}: {m}" for m in fails)
        self.rounds += len(run.trace.payoff_values)
        self.uncertified += int(run.budget_exceeded_rounds)

    @property
    def failed_run_frac(self) -> float:
        return self.failed / max(self.attempted, 1)

    @property
    def uncertified_round_frac(self) -> float:
        return self.uncertified / max(self.rounds, 1)
