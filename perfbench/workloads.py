"""The four benchmark workloads: inputs from a seed, timed units, checks.

A workload's fixed work is PASSES passes; pass k draws its own inputs from
the seed.  A pass is a list of units (a battery trial, a lemma item, a CLI
call).  Running a pass records, for every unit, its time, a key of its
output, and a replay: a callable that runs the unit again on the same
input and returns its time and the key of its new output.  The worker
times every unit again through its replay, round after round, and keeps
each unit's fastest time; a replay whose key differs is a failed check.
Output checks run after the timed pass, on what it returned; a unit that
raises, or whose check raises, is a failed check.

Seeds follow the acceptance tests: the battery seed of pass k is
`child_seed(seed, "<rule>:<axiom>", k)`, which for k = 0 is the seed
`run_matrix` and criterion 6 use (swf1's matrix batteries always use
criterion 5's), and the lemma items continue criterion 7's stream
`random.Random(seed + 6)` from pass to pass.  So at the default seed the
first pass of every battery, and the lemma stream, are prefixes of what
criteria 5, 6 and 7 run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from math import fsum

import baru
from baru import harness

DEFAULT_SEED = 20240801
SIX_RULES = ("swf1", "swf2", "swf3", "swf4", "swf5", "swf6")
TOL = 1e-9


@dataclass
class PassResult:
    inputs: list
    seconds: float = 0.0
    units: int = 0
    latencies: list[float] = field(default_factory=list)
    keys: list[bytes] = field(default_factory=list)
    replays: list = field(default_factory=list)
    outputs: list = field(default_factory=list)


def _key(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def _timed(run, *args) -> tuple[float, object]:
    """Runs one unit; its time and its output, or the exception it raised."""
    t0 = time.perf_counter()
    try:
        out = run(*args)
    except Exception as exc:  # the unit's outcome, reported by the caller
        out = exc
    return time.perf_counter() - t0, out


def _guard(check, *args) -> str | None:
    """Runs one unit's check; an exception is that unit's failure."""
    try:
        return check(*args)
    except Exception as exc:  # counted as a failed check, not raised
        return f"check raised {exc!r}"


def _completed(verdict) -> int:
    """Trials minus rejections, read from `notes` as criterion 6 does."""
    rejected = int(verdict.notes.split()[0]) if verdict.notes else 0
    return verdict.trials - rejected


def _replay_trial(run_one, cseed: int, t: int) -> tuple[float, bytes]:
    seconds, out = _timed(run_one, random.Random(cseed), t)
    return seconds, _key(repr(out))


class _Batteries:
    """Shared pass loop of the two battery workloads: one
    `run_axiom_battery` call per (rule, axiom, trials, battery seed) cell.

    The unit is one trial.  A battery hides its trial boundaries, so the
    pass wraps the `run_one` closure that `harness._run_battery` calls once
    per trial, times it, and returns its value, or raises its exception,
    unchanged.  A trial's replay calls the same closure with a fresh
    `random.Random` on the trial's seed, as the battery does."""

    PASSES = 1
    MIN_REPEATS = 2

    def __init__(self, rules) -> None:
        self.rules = {name: baru.rule_by_name(name) for name in rules}

    def cells(self, k: int) -> list[tuple[str, str, int, int]]:
        raise NotImplementedError

    def run_pass(self, k: int, tracer=None) -> PassResult:
        res = PassResult(self.cells(k))
        clock = time.perf_counter
        run_battery = harness._run_battery

        def timed_run_battery(axiom, trials, seed, run_one):
            def timed_run_one(rng, t):
                seconds, out = _timed(run_one, rng, t)
                res.latencies.append(seconds)
                res.keys.append(_key(repr(out)))
                res.replays.append(partial(_replay_trial, run_one, harness.child_seed(seed, axiom, t), t))
                if isinstance(out, Exception):
                    raise out
                return out

            return run_battery(axiom, trials, seed, timed_run_one)

        harness._run_battery = timed_run_battery
        try:
            begin = clock()
            for rule, axiom, trials, bseed in res.inputs:
                swf = self.rules[rule]
                if tracer is not None:
                    tracer.context = rule
                    swf = tracer.wrap(f"swf.{rule}", swf)
                try:
                    verdict = harness.run_axiom_battery(swf, axiom, trials, bseed)
                except Exception as exc:  # counted as a failed check, not raised
                    verdict = exc
                if not isinstance(verdict, Exception):
                    res.units += _completed(verdict)
                res.outputs.append(verdict)
            res.seconds = clock() - begin
        finally:
            harness._run_battery = run_battery
        return res

    def check(self, res: PassResult) -> list[str]:
        """One check per battery; returns the failures."""
        failures = []
        for (rule, axiom, _, _), verdict in zip(res.inputs, res.outputs):
            problem = _guard(self._check_battery, rule, axiom, verdict)
            if problem:
                failures.append(f"{rule}/{axiom}: {problem}")
        return failures

    def _check_battery(self, rule: str, axiom: str, verdict) -> str | None:
        if isinstance(verdict, Exception):
            return f"raised {verdict!r}"
        if verdict.satisfied == (axiom in baru.EXPECTED_VIOLATIONS[rule]):
            return f"verdict {verdict.as_dict()['verdict']}"
        if not verdict.satisfied:
            if verdict.witness is None:
                return "violation without a witness"
            if baru.rerun_witness(self.rules[rule], verdict.witness).satisfied:
                return "witness does not replay"
        return None


class Matrix(_Batteries):
    """Criterion 5's `run_matrix` loop over swf1..swf6 at reduced size.

    845 trials per rule is the smallest size whose swf1 continuity battery
    still reaches trial 75; with trials 56 and 65 those are the three
    near-degenerate Nash solves that dominate criterion 5.  swf1's batteries
    always run criterion 5's own stream: its solve cost is heavy-tailed
    across streams (one 90-trial continuity battery took 1.7 s on one seed
    and 52 s on another), so a seed-drawn stream would make wall time a
    lottery on how many near-degenerate profiles it draws.  The other five
    rules draw their streams from the seed, as `baru-suite` does.  A run
    holds one pass and at least one round of replays, however short
    `--seconds` is: the three solves are most of the pass, and one timing
    of each swung by a third with the load on the shared host.
    """

    name = "matrix"
    TRIALS = 845
    MIN_REPEATS = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.counts = harness.matrix_counts(self.TRIALS)
        super().__init__(SIX_RULES)

    def sizes(self) -> dict:
        return {"run_matrix_trials": self.TRIALS, "trials_per_axiom": self.counts}

    def cells(self, k: int) -> list[tuple[str, str, int, int]]:
        out = []
        for rule in SIX_RULES:
            seed, index = (DEFAULT_SEED, 0) if rule == "swf1" else (self.seed, k)
            for axiom in baru.MATRIX_AXIOMS:
                bseed = harness.child_seed(seed, f"{rule}:{axiom}", index)
                out.append((rule, axiom, self.counts[axiom], bseed))
        return out


class BaruSuite(_Batteries):
    """Criterion 6 at 1/40 scale: `baru` through the six matrix batteries
    plus restricted Pareto, on criterion 6's battery seeds."""

    name = "baru-suite"
    PASSES = 2
    TRIALS = 275  # criterion 6 runs 11000
    PARETO_TRIALS = 300  # criterion 6 runs 12000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.axioms = [(a, self.TRIALS) for a in baru.MATRIX_AXIOMS]
        self.axioms.append(("restricted-pareto", self.PARETO_TRIALS))
        super().__init__(("baru",))

    def cells(self, k: int) -> list[tuple[str, str, int, int]]:
        return [
            ("baru", axiom, trials, harness.child_seed(self.seed, f"baru:{axiom}", k))
            for axiom, trials in self.axioms
        ]

    def sizes(self) -> dict:
        return {"passes": self.PASSES, "trials_per_battery": self.TRIALS, "pareto_trials": self.PARETO_TRIALS}


# ---------------------------------------------------------------------------
# lemmas


def density_up_to(rng: random.Random, max_pieces: int = 20) -> baru.Density:
    """Arbitrary-breakpoint density, drawn exactly as criterion 7 draws it."""
    return density_with(rng, rng.randint(0, max_pieces - 1))


def density_with(rng: random.Random, cuts: int) -> baru.Density:
    """Density with up to `cuts` random breakpoints inside (0, 1)."""
    cuts = sorted({round(rng.uniform(0.01, 0.99), 6) for _ in range(cuts)})
    bps = (0.0, *cuts, 1.0)
    raw = [rng.uniform(0.1, 3.0) for _ in range(len(bps) - 1)]
    total = fsum(v * (bps[j + 1] - bps[j]) for j, v in enumerate(raw))
    return baru.Density(bps, tuple(v / total for v in raw))


def _table1():
    space = baru.OutcomeSpace(("a", "b", "c", "d"))
    p1 = baru.Preference(
        baru.Density.from_state_probs((0.9, 0.1)),
        baru.Utility({"a": 1.0, "b": 0.0, "c": 0.9, "d": 0.0}),
    )
    p2 = baru.Preference(
        baru.Density.from_state_probs((0.1, 0.9)),
        baru.Utility({"a": 0.0, "b": 1.0, "c": 0.8, "d": 0.0}),
    )
    profile = baru.Profile(space, (p1, p2, baru.INDIFFERENT))
    f = baru.Act.from_segments(((0.0, 0.5, "a"), (0.5, 1.0, "b")))
    g = baru.Act.from_segments(((0.0, 1.0, "c"),))
    return profile, f, g


class Lemmas:
    """The constructive lemmas and the LP/geometry layers at larger sizes
    than the batteries use.

    A pass is a fixed cycle of items:
    * `split`: criterion 7's item on 1-4 beliefs with up to 20 arbitrary
      pieces: `lyapunov_event` for the masses of a random interval, then
      `realize_lottery_act` for a random lottery;
    * `image`: `image_polytope` of a three-agent profile over five outcomes
      with four-piece beliefs (1000 directions plus the vertex-dedupe
      sweep); fixed sizes keep the slowest items, which set the latency
      tail, from swinging with the draw;
    * `unanimity`: `detect_spurious_unanimity` on a random two- or
      three-agent profile, with `common_belief_feasible` when the agents
      disagree, so every item solves one LP;
    * `window`: criterion 2's feasibility-window edges on Table 1.
    The mix keeps both `lp` and `geometry.image_polytope` above a quarter
    of the traced time.
    """

    name = "lemmas"
    PASSES = 6
    MIN_REPEATS = 2
    SPLIT, IMAGE, UNANIMITY = 24, 4, 12
    DIRECTIONS = ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (0.2, 0.5, 0.3), (-1.0, 0.5, 0.25))

    def __init__(self, seed: int) -> None:
        self.space = baru.OutcomeSpace(("w", "x", "y", "z"))
        self.split_rng = random.Random(seed + 6)
        self.image_rng = random.Random(harness.child_seed(seed, "lemmas:image", 0))
        self.unanimity_rng = random.Random(harness.child_seed(seed, "lemmas:unanimity", 0))
        self.window = ("window", _table1())
        self.passes: list[list] = []
        self.items(self.PASSES - 1)

    def sizes(self) -> dict:
        return {
            "passes": self.PASSES,
            "items_per_pass": 1 + self.SPLIT + self.IMAGE + self.UNANIMITY,
            "split": self.SPLIT,
            "image": self.IMAGE,
            "unanimity": self.UNANIMITY,
            "window": 1,
        }

    def items(self, k: int) -> list:
        """Items of pass k; the streams continue from pass to pass."""
        while len(self.passes) <= k:
            splits = [self._split() for _ in range(self.SPLIT)]
            images = [self._image() for _ in range(self.IMAGE)]
            unanimity = [self._unanimity() for _ in range(self.UNANIMITY)]
            items = [self.window]
            for j in range(self.IMAGE):
                items += splits[6 * j : 6 * j + 6] + [images[j]] + unanimity[3 * j : 3 * j + 3]
            self.passes.append(items)
        return self.passes[k]

    def _split(self):
        """Criterion 7's item, drawn in criterion 7's order."""
        rng, space = self.split_rng, self.space
        beliefs = [density_up_to(rng) for _ in range(rng.randint(1, 4))]
        a = rng.uniform(0.0, 0.6)
        b = rng.uniform(a + 0.05, min(a + 0.7, 1.0))
        event = baru.EventSet.from_intervals(((a, b),))
        targets = [baru.measure(d, event) for d in beliefs]
        w = [rng.uniform(0.0, 1.0) for _ in space.labels]
        total = fsum(w)
        lottery = baru.Lottery({lab: v / total for lab, v in zip(space.labels, w)}, space)
        return "split", (beliefs, targets, lottery, space)

    def _image(self):
        rng = self.image_rng
        space = harness.random_space(rng, 5, 5)
        agents = tuple(
            baru.Preference(density_with(rng, 3), harness.random_utility(rng, space)) for _ in range(3)
        )
        return "image", baru.Profile(space, agents)

    def _unanimity(self):
        rng = self.unanimity_rng
        space = harness.random_space(rng)
        agents = [
            baru.Preference(density_up_to(rng, 8), harness.random_utility(rng, space))
            for _ in range(rng.randint(2, 3))
        ]
        agents.append(baru.INDIFFERENT)
        prof = baru.Profile(space, tuple(agents))
        return "unanimity", (prof, harness.random_act(rng, space), harness.random_act(rng, space))

    @staticmethod
    def _run_item(kind: str, data):
        if kind == "split":
            beliefs, targets, lottery, space = data
            event = baru.lyapunov_event(beliefs, targets)
            act = baru.realize_lottery_act(beliefs, lottery, space)
            return event, act
        if kind == "image":
            return baru.image_polytope(data)
        if kind == "unanimity":
            prof, f, g = data
            report = baru.detect_spurious_unanimity(prof, f, g)
            if report.favored is None:
                return report, baru.common_belief_feasible(prof, f, g, "f")
            return report, None
        profile, f, g = data
        left = baru.EventSet.from_intervals(((0.0, 0.5),))
        edges = tuple(
            baru.common_belief_feasible(profile, f, g, "g", ((left, p),)) is not None
            for p in (0.2 + 1e-6, 0.9 - 1e-6, 0.2 - 1e-6, 0.9 + 1e-6)
        )
        return edges, baru.common_belief_feasible(profile, f, g, "f"), baru.detect_spurious_unanimity(
            profile, f, g
        )

    def run_pass(self, k: int, tracer=None) -> PassResult:
        res = PassResult(self.items(k))
        clock = time.perf_counter
        begin = clock()
        for kind, data in res.inputs:
            seconds, out = _timed(self._run_item, kind, data)
            res.latencies.append(seconds)
            res.keys.append(self._item_key(kind, out))
            res.replays.append(partial(self._replay_item, kind, data))
            res.outputs.append(out)
        res.seconds = clock() - begin
        res.units = len(res.inputs)
        return res

    @classmethod
    def _replay_item(cls, kind: str, data) -> tuple[float, bytes]:
        seconds, out = _timed(cls._run_item, kind, data)
        return seconds, cls._item_key(kind, out)

    @staticmethod
    def _item_key(kind: str, o) -> bytes:
        if isinstance(o, Exception):
            return _key(repr(o))
        if kind == "split":
            return _key(repr((o[0].intervals, o[1].segments)))
        if kind == "image":
            return _key(repr((o.support, o.vertices)))
        if kind == "unanimity":
            return _key(repr((o[0].as_dict(), o[1])))
        return _key(repr((o[0], o[1], o[2].as_dict())))

    def check(self, res: PassResult) -> list[str]:
        failures = []
        for k, ((kind, data), o) in enumerate(zip(res.inputs, res.outputs)):
            if isinstance(o, Exception):
                problem = f"raised {o!r}"
            else:
                problem = _guard(getattr(self, f"_check_{kind}"), data, o)
            if problem:
                failures.append(f"item {k} ({kind}): {problem}")
        return failures

    @staticmethod
    def _check_split(data, out) -> str | None:
        beliefs, targets, lottery, space = data
        event, act = out
        for d, t in zip(beliefs, targets):
            if abs(baru.measure(d, event) - t) > TOL:
                return f"event mass {baru.measure(d, event)!r} misses target {t!r}"
        want = lottery.as_mapping()
        for d in beliefs:
            got = baru.pushforward(act, d, space).as_mapping()
            for lab in space.labels:
                if abs(got.get(lab, 0.0) - want.get(lab, 0.0)) > TOL:
                    return f"pushforward of {lab} is {got.get(lab, 0.0)!r}, lottery says {want[lab]!r}"
        return None

    def _check_image(self, profile, poly) -> str | None:
        if not poly.vertices:
            return "no vertices"
        for direction in self.DIRECTIONS:
            act = poly.attaining_act(direction)
            attained = fsum(
                c * baru.expected_utility(profile.agents[i], act)
                for c, i in zip(direction, profile.concerned)
            )
            if abs(attained - poly.support_of(direction)) > TOL:
                return f"attaining act reaches {attained!r}, support is {poly.support_of(direction)!r}"
        return None

    @staticmethod
    def _check_unanimity(data, out) -> str | None:
        prof, f, g = data
        report, belief = out
        if report.favored is not None:
            belief = report.common_belief
            if report.spurious != (belief is None):
                return "spurious flag disagrees with the common belief"
        if belief is None:
            return None
        hi, lo = (g, f) if report.favored == "g" else (f, g)
        masses = [m for _, _, m in belief]
        if min(masses) < -TOL or abs(fsum(masses) - 1.0) > TOL:
            return "common belief is not a probability"
        for i in prof.concerned:
            u = prof.agents[i].utility
            adv = fsum(
                m * (u.value(hi.outcome_at(0.5 * (a + b))) - u.value(lo.outcome_at(0.5 * (a + b))))
                for a, b, m in belief
            )
            if adv < -TOL:
                return f"agent {i} prefers the other act under the common belief"
        return None

    @staticmethod
    def _check_window(data, out) -> str | None:
        edges, favor_f, report = out
        if edges != (True, True, False, False):
            return f"window edges {edges}"
        if favor_f is not None or report.favored != "f" or not report.spurious:
            return "Table 1 unanimity is not reported as spurious"
        return None


# ---------------------------------------------------------------------------
# CLI

README_PROFILE = {
    "outcomes": ["a", "b", "c", "d"],
    "grid": [0, 0.5, 1],
    "agents": [
        {"belief": {"values": [1.8, 0.2]}, "utility": {"a": 1, "b": 0, "c": 0.9, "d": 0}},
        {
            "belief": {"breakpoints": [0, 0.5, 1], "values": [0.2, 1.8]},
            "utility": {"a": 0, "b": 1, "c": 0.8, "d": 0},
        },
        {"belief": None, "utility": None},
    ],
    "params": {"weights": {"belief": [2, 1, 1], "utility": [2, 1, 1]}},
}
README_ACTS = {"acts": {"f": [[0, 0.5, "a"], [0.5, 1, "b"]], "g": [[0, 1, "c"]]}}
CLI_ENTRY = "import sys; from baru.cli import main; sys.exit(main())"


class Cli:
    """Fresh-process calls of the `baru` console entry point: the only
    workload with interpreter start, imports and JSON I/O on the path.

    A pass is one cycle of four calls; the replays make each call again."""

    name = "cli"
    PASSES = 1
    MIN_REPEATS = 2
    REPORT_TRIALS = 20

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        self.root = root
        os.makedirs(workdir, exist_ok=True)
        profile = os.path.join(workdir, "profile.json")
        acts = os.path.join(workdir, "acts.json")
        with open(profile, "w") as fh:
            json.dump(README_PROFILE, fh)
        with open(acts, "w") as fh:
            json.dump(README_ACTS, fh)
        self.workdir = workdir
        self.calls = [
            ("aggregate", ["aggregate", profile, "--swf", "baru", "--acts", acts]),
            ("aggregate", ["aggregate", profile, "--swf", "swf1", "--acts", acts]),
            (
                "axiom-report",
                ["axiom-report", "--swf", "baru", "--trials", str(self.REPORT_TRIALS), "--seed", str(seed)],
            ),
            ("image", ["image", profile]),
        ]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def sizes(self) -> dict:
        return {"calls_per_pass": len(self.calls), "axiom_report_trials": self.REPORT_TRIALS}

    def command(self, argv: list[str], span_file: str | None) -> list[str]:
        if span_file is None:
            return [sys.executable, "-c", CLI_ENTRY, *argv]
        child = os.path.join(self.root, "perfbench", "trace_child.py")
        return [sys.executable, child, span_file, *argv]

    def run_pass(self, k: int, tracer=None) -> PassResult:
        res = PassResult(self.calls)
        clock = time.perf_counter
        begin = clock()
        span_file = os.path.join(self.workdir, "child-spans.json") if tracer is not None else None
        for command, argv in self.calls:
            if tracer is not None:
                if os.path.exists(span_file):
                    os.remove(span_file)
                span = tracer.begin(f"cli.{command}")
            seconds, out = self._call(argv, span_file)
            res.latencies.append(seconds)
            res.keys.append(_key(f"{out[0]}\n{out[1]}"))
            res.replays.append(partial(self._replay_call, argv))
            res.outputs.append(out)
            if tracer is not None:
                tracer.finish(span)
                if os.path.exists(span_file):
                    with open(span_file) as fh:
                        tracer.merge(json.load(fh), span)
        res.seconds = clock() - begin
        res.units = len(self.calls)
        return res

    def _call(self, argv: list[str], span_file: str | None) -> tuple[float, tuple]:
        """One fresh-process call; its time and (exit code, stdout, stderr)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                self.command(argv, span_file), capture_output=True, text=True, env=self.env, timeout=60
            )
            out = (proc.returncode, proc.stdout, proc.stderr)
        except subprocess.TimeoutExpired:
            out = (None, "", "")
        return time.perf_counter() - t0, out

    def _replay_call(self, argv: list[str]) -> tuple[float, bytes]:
        seconds, (code, out, _) = self._call(argv, None)
        return seconds, _key(f"{code}\n{out}")

    def check(self, res: PassResult) -> list[str]:
        failures = []
        for k, ((command, argv), (code, out, err)) in enumerate(zip(res.inputs, res.outputs)):
            problem = _guard(self._check_call, command, argv, code, out, err)
            if problem:
                failures.append(f"call {k} ({command}): {problem}")
        return failures

    @staticmethod
    def _check_call(command: str, argv: list[str], code: int | None, out: str, err: str) -> str | None:
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            return "timed out" if code is None else f"exit code {code}: {last[0]}"
        report = json.loads(out)
        if command == "aggregate":
            evs = report.get("expected_values", {})
            if argv[3] == "baru":
                if abs(evs.get("f", 0.0) - 1.0) > 1e-12 or abs(evs.get("g", 0.0) - 1.7) > 1e-12:
                    return f"README example EVs {evs}, want f=1.0 g=1.7"
                if report.get("ranking") != "g ≻ f":
                    return f"ranking {report.get('ranking')!r}, want g ≻ f (verdict second)"
            elif set(evs) != {"f", "g"}:
                return f"expected values for {sorted(evs)}"
            return None
        if command == "axiom-report":
            verdicts = {a: v["verdict"] for a, v in report["axioms"].items()}
            if set(verdicts.values()) != {"satisfied-on-sample"}:
                return f"baru verdicts {verdicts}"
            return None
        vertices = report.get("vertices") or []
        if report.get("dimension") != 2 or len(vertices) < 3:
            return f"image of dimension {report.get('dimension')} with {len(vertices)} vertices"
        return None


def build(name: str, seed: int, root: str, workdir: str):
    if name == "matrix":
        return Matrix(seed)
    if name == "baru-suite":
        return BaruSuite(seed)
    if name == "lemmas":
        return Lemmas(seed)
    if name == "cli":
        return Cli(seed, root, workdir)
    raise ValueError(f"unknown workload {name!r}")
