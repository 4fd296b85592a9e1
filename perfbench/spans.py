"""Span tracer that wraps baru's public functions from outside the package.

Every wrapped function gets a span (name, start, end, parent, trial id)
appended to flat in-memory arrays; nothing is written until the run ends.
A wrapper returns the wrapped function's value and lets its exceptions
propagate untouched, so a traced run reaches bit-identical verdicts.

Names are installed on every namespace that binds them: `harness` imports
the checkers by name, `axioms` imports `support_values`, `geometry_for`
and `preference_distance` by name, and `Density.mass` is a class
attribute.  Self time is a span's duration minus the time its child spans
cover (the code is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import re
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

# (module, attribute, span name); the attribute is looked up on the module
# and replaced wherever a baru namespace binds the same object
SPANNED = (
    ("baru.measure", "merged_breakpoints", "measure.merged_breakpoints"),
    ("baru.measure", "segment_masses", "measure.segment_masses"),
    ("baru.measure", "belief_distance", "measure.belief_distance"),
    ("baru.measure", "pushforward_coarsening", "measure.pushforward_coarsening"),
    ("baru.measure", "lyapunov_event", "measure.lyapunov_event"),
    ("baru.prefs", "expected_utility", "prefs.expected_utility"),
    ("baru.prefs", "preference_distance", "prefs.preference_distance"),
    ("baru.prefs", "pushforward", "prefs.pushforward"),
    ("baru.prefs", "realize_lottery_act", "prefs.realize_lottery_act"),
    ("baru.swf", "_merge", "swf._merge"),
    ("baru.swf", "_nash_frank_wolfe", "swf.nash"),
    ("baru.geometry", "geometry_for", "geometry.geometry_for"),
    ("baru.geometry", "support_values", "geometry.support_values"),
    ("baru.geometry", "minkowski_polygon", "geometry.minkowski_polygon"),
    ("baru.geometry", "image_polytope", "geometry.image_polytope"),
    ("baru.lp", "feasible_point", "lp.feasible_point"),
    ("baru.axioms", "certify_coredundancy", "axioms.certify_coredundancy"),
    ("baru.axioms", "check_faithfulness", "axioms.check_faithfulness"),
    ("baru.axioms", "check_anonymity", "axioms.check_anonymity"),
    ("baru.axioms", "check_no_belief_imposition", "axioms.check_no_belief_imposition"),
    ("baru.axioms", "check_restricted_monotonicity", "axioms.check_restricted_monotonicity"),
    (
        "baru.axioms",
        "check_independence_redundant_acts",
        "axioms.check_independence_redundant_acts",
    ),
    ("baru.axioms", "check_restricted_pareto", "axioms.check_restricted_pareto"),
    ("baru.axioms", "continuity_probe", "axioms.continuity_probe"),
    ("baru.axioms", "common_belief_feasible", "axioms.common_belief_feasible"),
    ("baru.harness", "run_axiom_battery", "harness.run_axiom_battery"),
)

RULES = ("baru", "swf1", "swf2", "swf3", "swf4", "swf5", "swf6")
AXIOMS = (
    "faithfulness",
    "anonymity",
    "no-belief-imposition",
    "restricted-monotonicity",
    "independence-redundant-acts",
    "continuity",
    "restricted-pareto",
)
CHECKS = tuple(name for _, _, name in SPANNED if name.startswith("axioms.check_")) + (
    "axioms.continuity_probe",
)

# ScenarioRejected messages carry numbers and agent ids; each raise site
# in harness.py and axioms.py maps to one fixed reason name
REJECTION_REASONS = (
    ("non-common-utility", r"could not draw a non-common-utility profile"),
    ("society-indifferent-at-base", r"society indifferent at base"),
    ("society-utility-flat", r"society utility nearly flat"),
    ("tie-drifted", r"society tie construction drifted"),
    ("no-opinionated-agent", r"no strictly opinionated new agent found"),
    ("subset-utility-shared", r"agents nearly share a utility on the subset"),
    ("no-unanimous-constant-pair", r"no unanimous pair of constant acts"),
    ("lottery-infeasible", r"lottery realization infeasible"),
    ("no-improving-lottery", r"no unanimously improving lottery found"),
    ("twin-common-utility", r"twin profile degenerated to a common utility"),
    ("agent-indifferent", r"agent is completely indifferent"),
    ("society-unrepresented", r"society must be represented with and without"),
    ("agent-not-indifferent", r"agent must be indifferent at the base profile"),
    ("newpref-unrepresented", r"the acquired preference must be represented"),
    ("nonconstant-acts", r"indifferent-society branch needs constant acts"),
    ("pushforward-mismatch", r"pushforward mismatch"),
    ("society-not-indifferent", r"society is not indifferent between f and g"),
    ("coredundancy-refused", r"co-redundancy refused"),
    ("concerned-differ", r"profiles differ in which agents are concerned"),
    ("coarsened-beliefs-differ", r"coarsened beliefs differ by"),
    ("subset-utilities-differ", r"utilities differ on the subset by"),
    ("no-concerned-agents", r"no concerned agents"),
    ("act-pushforwards-differ", r"act pushforwards differ across agents"),
    ("no-unanimous-direction", r"no unanimous direction"),
    ("continuity-few-agents", r"continuity probe needs at least two concerned"),
    ("continuity-target-unconcerned", r"perturbation target must be concerned"),
)
_REASON_PATTERNS = tuple((name, re.compile(pat)) for name, pat in REJECTION_REASONS)

COMMANDS = ("aggregate", "axiom-report", "image")


def rejection_reason(message: str) -> str:
    for name, pattern in _REASON_PATTERNS:
        if pattern.search(message):
            return name
    return "other"


def _calls_self(name: str) -> tuple[str, ...]:
    return (f"{name}.calls", f"{name}.self_s")


def layer_metric_names() -> tuple[str, ...]:
    """Every per-layer metric a traced run reports, in report order."""
    names: list[str] = []
    for fn in (
        "merged_breakpoints",
        "segment_masses",
        "belief_distance",
        "pushforward_coarsening",
        "lyapunov_event",
    ):
        names += _calls_self(f"measure.{fn}")
    names.append("measure.Density.mass.calls")
    for fn in ("expected_utility", "preference_distance", "pushforward", "realize_lottery_act"):
        names += _calls_self(f"prefs.{fn}")
    for rule in RULES:
        names += _calls_self(f"swf.{rule}")
    names += _calls_self("swf._merge")
    names += [f"swf.nash.{s}" for s in ("solves", "self_s", "ms_p50", "ms_max", "over_1s")]
    names += _calls_self("geometry.geometry_for")
    names += _calls_self("geometry.support_values")
    names += ["geometry.support_values.directions", "geometry.support_values.madds"]
    names += _calls_self("geometry.minkowski_polygon")
    names += _calls_self("geometry.image_polytope")
    names += _calls_self("lp.feasible_point")
    names += ["lp.feasible_point.infeasible", "lp.feasible_point.cells_mean"]
    names += _calls_self("axioms.certify_coredundancy")
    names.append("axioms.certify_coredundancy.refused")
    for check in CHECKS:
        names += _calls_self(check)
    names += _calls_self("axioms.common_belief_feasible")
    names += ["harness.trials_attempted", "harness.trials_completed", "harness.rejected_frac"]
    names += [f"harness.rejected.{reason}" for reason, _ in REJECTION_REASONS]
    names.append("harness.rejected.other")
    names += ["harness.draw_s", "harness.rule_s", "harness.check_s"]
    names += ["harness.trial_ms_p50", "harness.trial_ms_p99", "harness.trial_ms_max"]
    names += [f"harness.battery_s.{axiom}" for axiom in AXIOMS]
    names += ["cli.import.python_ms", "cli.import.numpy_ms", "cli.import.baru_self_ms"]
    names += [f"cli.{command}.ms_p50" for command in COMMANDS]
    names.append("trace.overhead_s")
    return tuple(names)


def layer_metric_unit(name: str) -> str:
    if name.endswith("_ms") or ".ms_" in name or "_ms_" in name:
        return "ms"
    if name.endswith("_s") or ".battery_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".madds"):
        return "madds"
    if name.endswith(".cells_mean"):
        return "cells"
    return "count"


class Tracer:
    """Spans in parallel flat arrays; index order is start order, so a
    parent always precedes its children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.stack = [-1]
        self.trials: list[str] = []  # trial id -> "<context>:<axiom>:<t>"
        self.rejected: dict[int, str] = {}  # trial id -> reason
        self.battery_axiom: dict[int, str] = {}  # run_axiom_battery span -> axiom
        self.stats: dict[str, float] = defaultdict(float)
        self.context = ""
        self._current_trial = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Span-recording wrapper; `after(span_index, args, result)` runs
        outside the span once the call has returned."""
        nid = self.name_id(name)
        names, starts, ends, parents, trials, stack = (
            self.name,
            self.start,
            self.end,
            self.parent,
            self.trial,
            self.stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            trials.append(self._current_trial)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    def begin(self, name: str) -> int:
        """Opens a span by hand, for work the benchmark does itself (a
        child process); close it with `finish`."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.trial.append(self._current_trial)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()

    def count(self, name: str, fn: Callable) -> Callable:
        stats = self.stats

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stats[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap_run_battery(self, run_battery: Callable, rejected_type: type) -> Callable:
        """Wraps harness._run_battery so that each trial (one call of the
        battery's run_one closure) becomes a span carrying its trial id,
        and each ScenarioRejected is grouped by reason, then re-raised."""

        @functools.wraps(run_battery)
        def traced_run_battery(axiom, trials, seed, run_one):
            trial_span = self.wrap("harness.trial", run_one)

            def traced_run_one(rng, t):
                self.trials.append(f"{self.context}:{axiom}:{t}")
                self._current_trial = len(self.trials) - 1
                try:
                    return trial_span(rng, t)
                except rejected_type as exc:
                    self.rejected[self._current_trial] = rejection_reason(str(exc))
                    raise
                finally:
                    self._current_trial = -1

            return run_battery(axiom, trials, seed, traced_run_one)

        return traced_run_battery

    # -- installation --------------------------------------------------

    def _replace(self, original: object, wrapper: object, extra: tuple) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "baru" or name.startswith("baru.") or module in extra):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._installed.append((module, key, value))
                    setattr(module, key, wrapper)

    def install(self, extra_modules: tuple = ()) -> None:
        """Wrap every traced function in every baru namespace and in the
        given extra modules."""
        from baru import axioms, harness
        from baru.measure import Density

        def support_stats(idx, args, result):
            geom, directions = args[0], np.atleast_2d(args[1])
            s, x, n = geom.tensor.shape
            self.stats["geometry.support_values.directions"] += directions.shape[0]
            self.stats["geometry.support_values.madds"] += s * x * n * directions.shape[0]

        def lp_stats(idx, args, result):
            m, n = np.shape(args[0])
            self.stats["lp.feasible_point.cells"] += m * n
            self.stats["lp.feasible_point.infeasible"] += result is None

        def certify_stats(idx, args, result):
            self.stats["axioms.certify_coredundancy.refused"] += isinstance(result, axioms.Refused)

        def battery_stats(idx, args, result):
            self.battery_axiom[idx] = args[1]

        after = {
            "geometry.support_values": support_stats,
            "lp.feasible_point": lp_stats,
            "axioms.certify_coredundancy": certify_stats,
            "harness.run_axiom_battery": battery_stats,
        }
        for module_name, attr, span_name in SPANNED:
            original = getattr(sys.modules[module_name], attr)
            self._replace(original, self.wrap(span_name, original, after.get(span_name)), extra_modules)
        original = harness._run_battery
        self._replace(
            original, self.wrap_run_battery(original, axioms.ScenarioRejected), extra_modules
        )
        mass = vars(Density)["mass"]
        self._installed.append((Density, "mass", mass))
        Density.mass = self.count("measure.Density.mass.calls", mass)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._installed):
            setattr(owner, key, value)
        self._installed.clear()

    # -- merging spans from a traced child process ---------------------

    def dump(self) -> dict:
        """JSON-ready copy of everything `merge` needs."""
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "trial": self.trial.tolist(),
            "trials": self.trials,
            "rejected": self.rejected,
            "battery_axiom": self.battery_axiom,
            "stats": dict(self.stats),
        }

    def merge(self, data: dict, parent: int) -> None:
        """Append a child's spans under span `parent`.  perf_counter is the
        system-wide monotonic clock, so the child's times need no shift."""
        offset, trial_offset = len(self.start), len(self.trials)
        remap = [self.name_id(n) for n in data["names"]]
        self.name.extend(remap[k] for k in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(parent if p < 0 else p + offset for p in data["parent"])
        self.trial.extend(t if t < 0 else t + trial_offset for t in data["trial"])
        self.trials.extend(data["trials"])
        for t, reason in data["rejected"].items():
            self.rejected[int(t) + trial_offset] = reason
        for idx, axiom in data["battery_axiom"].items():
            self.battery_axiom[int(idx) + offset] = axiom
        for key, value in data["stats"].items():
            self.stats[key] += value

    # -- aggregation ---------------------------------------------------

    def arrays(self) -> tuple[np.ndarray, ...]:
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return name, start, end, parent

    def durations_of(self, span_name: str) -> np.ndarray:
        name, start, end, _ = self.arrays()
        nid = self._name_ids.get(span_name)
        if nid is None:
            return np.zeros(0)
        mask = name == nid
        return end[mask] - start[mask]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and extra stats, keyed as in
        `layer_metric_names` (cli.* and trace.* are filled by the caller)."""
        name, start, end, parent = self.arrays()
        n, k = len(start), len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        out = {m: 0.0 for m in layer_metric_names()}
        for nid, span_name in enumerate(self.names):
            if f"{span_name}.calls" in out:
                out[f"{span_name}.calls"] = float(calls[nid])
                out[f"{span_name}.self_s"] = float(self_s[nid])
        for key in (
            "measure.Density.mass.calls",
            "geometry.support_values.directions",
            "geometry.support_values.madds",
            "lp.feasible_point.infeasible",
            "axioms.certify_coredundancy.refused",
        ):
            out[key] = float(self.stats.get(key, 0.0))
        if out["lp.feasible_point.calls"]:
            out["lp.feasible_point.cells_mean"] = (
                self.stats.get("lp.feasible_point.cells", 0.0) / out["lp.feasible_point.calls"]
            )

        nash = self.durations_of("swf.nash")
        nash_id = self._name_ids.get("swf.nash")
        out["swf.nash.solves"] = float(len(nash))
        out["swf.nash.self_s"] = float(self_s[nash_id]) if nash_id is not None else 0.0
        if len(nash):
            out["swf.nash.ms_p50"] = float(np.median(nash)) * 1e3
            out["swf.nash.ms_max"] = float(nash.max()) * 1e3
            out["swf.nash.over_1s"] = float((nash > 1.0).sum())

        trial_id = self._name_ids.get("harness.trial")
        if trial_id is not None:
            trial_dur = dur[name == trial_id]
            attempted = len(trial_dur)
            rejected = len(self.rejected)
            out["harness.trials_attempted"] = float(attempted)
            out["harness.trials_completed"] = float(attempted - rejected)
            out["harness.rejected_frac"] = rejected / attempted if attempted else 0.0
            for reason in self.rejected.values():
                out[f"harness.rejected.{reason}"] += 1.0
            out["harness.trial_ms_p50"] = float(np.percentile(trial_dur, 50)) * 1e3
            out["harness.trial_ms_p99"] = float(np.percentile(trial_dur, 99)) * 1e3
            out["harness.trial_ms_max"] = float(trial_dur.max()) * 1e3
            draw, rule, check = self._phase_split(name, own, parent, trial_id)
            out["harness.draw_s"], out["harness.rule_s"], out["harness.check_s"] = draw, rule, check
        for idx, axiom in self.battery_axiom.items():
            out[f"harness.battery_s.{axiom}"] += float(dur[idx])
        return out

    def _phase_split(self, name, own, parent, trial_id) -> tuple[float, float, float]:
        """Splits trial time into drawing the scenario, running the rule and
        checking: a span's self time counts as rule time inside a rule
        call, as check time inside a checker, and as draw time otherwise."""
        rule_ids = {self._name_ids[f"swf.{r}"] for r in RULES if f"swf.{r}" in self._name_ids}
        check_ids = {self._name_ids[c] for c in CHECKS if c in self._name_ids}
        none, draw, rule, check = 0, 1, 2, 3
        phase = [none] * len(own)
        parents = parent.tolist()
        for i, nid in enumerate(name.tolist()):
            up = phase[parents[i]] if parents[i] >= 0 else none
            if nid == trial_id:
                phase[i] = draw
            elif up == none or up == rule:
                phase[i] = up
            elif nid in rule_ids:
                phase[i] = rule
            elif nid in check_ids:
                phase[i] = check
            else:
                phase[i] = up
        sums = np.bincount(np.array(phase, dtype=np.int64), weights=own, minlength=4)
        return float(sums[draw]), float(sums[rule]), float(sums[check])

    def slowest(self, span_name: str, k: int) -> list[dict]:
        """The k longest spans of a name, with the trial each ran in."""
        name, start, end, _ = self.arrays()
        nid = self._name_ids.get(span_name)
        if nid is None:
            return []
        idx = np.flatnonzero(name == nid)
        order = idx[np.argsort(-(end[idx] - start[idx]), kind="stable")[:k]]
        out = []
        for i in order:
            t = self.trial[int(i)]
            out.append(
                {
                    "ms": float(end[i] - start[i]) * 1e3,
                    "trial": self.trials[t] if t >= 0 else None,
                }
            )
        return out

    def save(self, path: str) -> None:
        """Writes the raw spans once, at the end of the run."""
        name, start, end, parent = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            trial=np.frombuffer(self.trial, dtype=np.int32),
            trials=np.array(self.trials, dtype=str),
        )
