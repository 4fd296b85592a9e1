"""Seeded scenario generators, battery plumbing, the expected-violation
matrix at reduced trial counts, and witness replay."""

import ast
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from baru import harness
from baru import (
    INDIFFERENT,
    RULE_NAMES,
    Act,
    OutcomeSpace,
    Preference,
    Profile,
    TOL_MEASURE,
    Utility,
    compare,
    baru,
    preference_from_dict,
    profile_as_dict,
    profile_from_dict,
    rerun_witness,
    rule_by_name,
    run_axiom_battery,
    run_matrix,
    matrix_violations,
)
from baru.axioms import (
    ScenarioRejected,
    check_independence_redundant_acts,
    check_restricted_monotonicity,
    check_restricted_pareto,
)
from baru.harness import (
    AXIOM_SPECS,
    EXPECTED_VIOLATIONS,
    MATRIX_AXIOMS,
    _choice,
    _randint,
    _sample,
    child_seed,
    continuity_scenario,
    ira_scenario,
    matrix_counts,
    pareto_scenario,
    preference_as_dict,
    random_act,
    random_density,
    random_profile,
    random_space,
    random_utility,
    reversal,
    rm_scenario,
    scenario_as_dict,
    scenario_from_dict,
)
from baru.prefs import _cut_at_mass

SPACE = OutcomeSpace(("a", "b", "c", "d"))


def test_child_seed_deterministic_and_spread():
    a = child_seed(1, "x", 0)
    assert a == child_seed(1, "x", 0)
    assert a != child_seed(1, "x", 1)
    assert a != child_seed(1, "y", 0)
    assert a != child_seed(2, "x", 0)


def test_random_space_bounds(rng):
    for _ in range(20):
        space = random_space(rng)
        assert 4 <= len(space.labels) <= 6
        assert len(set(space.labels)) == len(space.labels)


def test_random_density_is_valid(rng):
    for _ in range(50):
        d = random_density(rng)
        assert d.mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0.0 for v in d.values)


def test_random_utility_hits_bounds(rng):
    for _ in range(50):
        space = random_space(rng)
        u = random_utility(rng, space)
        vals = [u.value(lab) for lab in space.labels]
        assert min(vals) == 0.0 and max(vals) == 1.0


def test_drawn_utilities_equal_checked_ones():
    # random_utility and reversal skip Utility's checks; the checked
    # constructor accepts the same values and builds the same object
    for seed in range(500):
        a, b = random.Random(seed), random.Random(seed)
        space = random_space(a)
        assert random_space(b) == space
        u = random_utility(a, space)
        want = Utility(harness._utility_values(b, space.labels))
        assert u == want and repr(u) == repr(want)
        r = reversal(u)
        want_r = Utility({lab: 1.0 - u.value(lab) for lab in u.labels})
        assert r == want_r and repr(r) == repr(want_r)
        assert a.getstate() == b.getstate()


def _is_common_utility_reference(profile):
    """`_is_common_utility` by one `value` lookup per outcome and agent."""
    ids = profile.concerned
    if len(ids) < 2:
        return False
    base = profile.agents[ids[0]].utility
    for i in ids[1:]:
        u = profile.agents[i].utility
        labs = profile.space.labels
        same = all(abs(u.value(l) - base.value(l)) <= TOL_MEASURE for l in labs)
        rev = all(abs(u.value(l) - (1.0 - base.value(l))) <= TOL_MEASURE for l in labs)
        if not (same or rev):
            return False
    return True


def test_is_common_utility_matches_reference(rng):
    space = OutcomeSpace(("a", "b", "c", "d", "e"))
    near = 0.5 * TOL_MEASURE
    for _ in range(400):
        # the ends sit at "a" and "b", so the last outcome can be nudged
        vals = {"a": 0.0, "b": 1.0, **{lab: rng.uniform(0.05, 0.95) for lab in "cde"}}
        u = Utility(vals)
        kin = [
            u,
            reversal(u),
            random_utility(rng, space),
            # equal, or reversed, but for a nudge within or past TOL_MEASURE
            # at the last outcome only, where the first outcomes cannot decide
            Utility({**vals, "e": vals["e"] + rng.choice((near, 3 * near))}),
            Utility({**reversal(u).as_mapping(), "e": 1.0 - vals["e"] + rng.choice((near, 3 * near))}),
        ]
        others = rng.sample(kin, rng.randint(1, 3))
        agents = [Preference(random_density(rng), w) for w in [u, *others]]
        profile = Profile(space, tuple(agents) + (INDIFFERENT,) * max(0, 3 - len(agents)))
        assert harness._is_common_utility(profile) == _is_common_utility_reference(profile)


def test_random_act_tiles(rng):
    for _ in range(50):
        act = random_act(rng, SPACE)
        assert act.segments[0][0] == 0.0 and act.segments[-1][1] == 1.0


def test_reversal_flips_normalized_utility(rng):
    u = random_utility(rng, SPACE)
    r = reversal(u)
    for lab in SPACE.labels:
        assert r.value(lab) == pytest.approx(1.0 - u.value(lab), abs=1e-12)


def test_random_profile_avoids_common_utility(rng):
    for _ in range(30):
        prof = random_profile(rng)
        assert len(prof.concerned) >= 2
        us = [prof.agents[i].utility for i in prof.concerned]
        for other in us[1:]:
            same = all(
                abs(us[0].value(lab) - other.value(lab)) <= 1e-9
                for lab in prof.space.labels
            )
            flipped = all(
                abs(us[0].value(lab) - (1.0 - other.value(lab))) <= 1e-9
                for lab in prof.space.labels
            )
            assert not same and not flipped


def test_profile_serialization_round_trip(rng):
    prof = random_profile(rng)
    blob = json.dumps(profile_as_dict(prof))
    back = profile_from_dict(json.loads(blob))
    assert back.space.labels == prof.space.labels
    for a, b in zip(prof.agents, back.agents):
        assert a.is_indifferent == b.is_indifferent
        if not a.is_indifferent:
            assert a.belief.breakpoints == b.belief.breakpoints
            assert a.belief.values == b.belief.values


def test_preference_serialization_indifferent():
    assert preference_from_dict(preference_as_dict(INDIFFERENT)).is_indifferent


def test_rm_scenario_accepted_by_checker(rng):
    for t in range(12):
        variant = ("aligned", "tilted", "indifferent")[t % 3]
        base, agent, newpref, f, g = rm_scenario(rng, baru, variant)
        v = check_restricted_monotonicity(baru, base, agent, newpref, f, g)
        assert v.satisfied


def test_ira_scenario_accepted_by_checker(rng):
    for t in range(8):
        variant = "merge" if t % 2 else "identity"
        p, p2, q, outs = ira_scenario(rng, variant)
        v = check_independence_redundant_acts(baru, p, p2, q, outs)
        assert v.satisfied


def test_pareto_scenario_accepted_by_checker(rng):
    accepted = 0
    for t in range(20):
        try:
            prof, f, g = pareto_scenario(rng, constant=bool(t % 2))
        except ScenarioRejected:
            continue  # rejection is a normal generator outcome
        v = check_restricted_pareto(baru, prof, f, g)
        assert v.satisfied
        accepted += 1
    assert accepted >= 10


def test_continuity_scenario_shapes(rng):
    prof, agent = continuity_scenario(rng, twin=True)
    assert agent in prof.concerned
    twin_partner = [
        i
        for i in prof.concerned
        if i != agent
        and prof.agents[i].belief.values == prof.agents[agent].belief.values
    ]
    assert twin_partner  # exact copy present somewhere


def test_battery_reports_rejections(rng):
    v = run_axiom_battery(baru, "restricted-pareto", 30, 11)
    assert v.satisfied
    assert v.trials == 30


def test_axiom_specs_cover_every_battery():
    assert set(AXIOM_SPECS) == set(MATRIX_AXIOMS) | {"restricted-pareto"}


@pytest.mark.parametrize("axiom", sorted(AXIOM_SPECS))
def test_scenario_codec_round_trip(axiom):
    # a replay must check exactly the scenario the battery checked
    drawn = 0
    for t in range(8):  # spans every variant a spec picks by trial index
        try:
            sc = AXIOM_SPECS[axiom].draw(random.Random(child_seed(5, axiom, t)), t, baru)
        except ScenarioRejected:
            continue
        assert scenario_from_dict(json.loads(json.dumps(scenario_as_dict(sc)))) == sc
        drawn += 1
    assert drawn >= 4


# sha256 of the repr of the first 40 draws of each spec, trial t on
# random.Random(child_seed(20240801, axiom, t)), a rejection as
# "rejected: <message>", with the number of rejections.  Restricted
# monotonicity's draw calls the rule, so it is pinned for swf1 too.
DRAW_PINS = {
    ("faithfulness", "baru"): ("27a18d8d86dfd0cb12204d9d909f8ef09cbe32e9085f6a170782ccb4ba3aaa28", 0),
    ("anonymity", "baru"): ("61756782f584499bae62aa9bc6034a90eb519260d9f9886ddf60313f4cf848d1", 0),
    ("no-belief-imposition", "baru"): ("3cd4d1911e146f84489d241a17fbf78754a69cd15b71abcd17ab5dd16c78f54e", 0),
    ("restricted-monotonicity", "baru"): ("273afce1396c57e0d486fdcc3e4e6aa16454a392ba090dddc2876b716243ac94", 3),
    ("restricted-monotonicity", "swf1"): ("f5c2f8adbb07df4e1bc6aba2101d186a9d2cd3852d865d8f574fc1ec2d79eea5", 2),
    ("independence-redundant-acts", "baru"): ("2998fd80d19326e1c5d5ce3ca7b5509eecdc807690831cd7cd42be90c3d2900f", 0),
    ("restricted-pareto", "baru"): ("f80734ba5f376bf76e94948fc224dd7f812857baa7d56ced46d2eac0b9ffe14c", 8),
    ("continuity", "baru"): ("4904db441de85adc9c789e37e68e4b2ab3228906228e51e475d19966f8f17ddc", 0),
}


def test_draw_pins_cover_every_spec():
    assert {axiom for axiom, _ in DRAW_PINS} == set(AXIOM_SPECS)


@pytest.mark.parametrize("axiom,rule", sorted(DRAW_PINS))
def test_draws_pinned(axiom, rule):
    draw = AXIOM_SPECS[axiom].draw
    lines = []
    for t in range(40):
        try:
            lines.append(repr(draw(random.Random(child_seed(20240801, axiom, t)), t, rule_by_name(rule))))
        except ScenarioRejected as exc:
            lines.append(f"rejected: {exc}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    rejected = sum(line.startswith("rejected: ") for line in lines)
    assert (digest, rejected) == DRAW_PINS[axiom, rule], f"the {axiom} draws moved"


def _replica_draws(rng, stdlib):
    """Every draw the harness makes, in one fixed order: through the
    `random.Random` methods when `stdlib`, else through the harness's
    replicas of them.  Each is returned as (what was drawn, value)."""
    out = []
    # random_space, the batteries' agent counts, the lattice's cell counts
    # and `_fiber_tilt`'s split index (a `randrange(1, m + 1)` there)
    for a, b in [(4, 6), (5, 6), (2, 4), (2, 5), (3, 4), (3, 5)]:
        out.append((f"randint({a}, {b})", rng.randint(a, b) if stdlib else _randint(rng, a, b)))
    for m in range(1, 18):
        out.append((f"randrange(1, {m + 1})", rng.randrange(1, m + 1) if stdlib else _randint(rng, 1, m)))
    # the lattice cuts, outcome pairs and subsets, and agent slots
    pops = [range(1, 16), range(21)] + [range(n) for n in (3, 4)]
    pops += [tuple(f"o{j + 1}" for j in range(n)) for n in (4, 5, 6)]
    for pop in pops:
        for k in range(1, min(len(pop), 4) + 1):
            v = rng.sample(pop, k) if stdlib else _sample(rng, pop, k)
            out.append((f"sample({pop!r}, {k})", v))
    # an act's outcomes and a drawn agent
    for seq in [tuple(f"o{j + 1}" for j in range(n)) for n in (1, 4, 5, 6)] + [(0, 2), (1, 2, 3)]:
        out.append((f"choice({seq!r})", rng.choice(seq) if stdlib else _choice(rng, seq)))
    # utility values, convex weights, densities, tilts and Pareto mixtures
    uniforms = [(0.05, 0.95), (0.05, 1.0), (0.15, 2.0), (-0.4, 0.4), (0.25, 0.75), (-0.3, 0.3), (-0.3, 1e-3)]
    for a, b in uniforms:
        out.append((f"uniform({a}, {b})", rng.uniform(a, b) if stdlib else a + (b - a) * rng.random()))
    return out


def test_draw_helpers_replicate_the_random_methods():
    # same values and same generator state as the stdlib methods, including
    # the redraws of `_below`, on 10 000 battery-style seeds
    for t in range(10_000):
        seed = child_seed(20240801, "replicas", t)
        ours, theirs = random.Random(seed), random.Random(seed)
        got, want = _replica_draws(ours, False), _replica_draws(theirs, True)
        assert got == want, (seed, next(g for g, w in zip(got, want) if g != w))
        assert ours.getstate() == theirs.getstate(), seed


def test_sample_refuses_populations_past_the_pool_method():
    # CPython samples 22 or more items another way, so the replica refuses
    rng = random.Random(1)
    assert len(_sample(rng, range(21), 21)) == 21
    with pytest.raises(ValueError, match="at most 21 items"):
        _sample(rng, range(22), 2)
    with pytest.raises(ValueError, match="cannot sample 5 of 4"):
        _sample(rng, range(4), 5)
    with pytest.raises(ValueError, match="positive bound"):
        _choice(rng, ())


def test_harness_reads_the_generator_only_through_getrandbits_and_random():
    # a later edit cannot bring back a stdlib draw whose algorithm CPython
    # may change: no `rng.<method>` but these two, no module-level draw
    methods: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(inspect.getsource(harness))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = getattr(node.func.value, "id", None)
            methods.setdefault(owner, set()).add(node.func.attr)
    assert methods["rng"] == {"getrandbits", "random"}
    assert methods["random"] == {"Random"}


# Thirty trials of every battery against every rule, printed as JSON.
_ALL_BATTERIES = """
import json
from baru.harness import AXIOM_SPECS, child_seed, run_axiom_battery
from baru.swf import RULE_NAMES, rule_by_name
print(json.dumps([
    run_axiom_battery(rule_by_name(rule), axiom, 30, child_seed(7, f"{rule}:{axiom}", 0)).as_dict()
    for rule in RULE_NAMES
    for axiom in AXIOM_SPECS
]))
"""

# Installed before `import baru`: any read of a numpy attribute raises.
_NO_NUMPY = """
import sys, types
class NoNumpy(types.ModuleType):
    def __getattr__(self, name):
        raise RuntimeError(f"numpy.{name} was read")
sys.modules["numpy"] = NoNumpy("numpy")
"""


def test_batteries_need_no_numpy():
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [
        subprocess.run(
            [sys.executable, "-c", prefix + _ALL_BATTERIES], env=env, capture_output=True, text=True, timeout=300
        )
        for prefix in (_NO_NUMPY, "")
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
    stubbed, plain = (json.loads(run.stdout) for run in runs)
    assert len(plain) == len(RULE_NAMES) * len(AXIOM_SPECS)
    assert stubbed == plain


def _calls_per_trial(monkeypatch, swf, axiom, trials, seed):
    """(t, rule calls, completed) for each trial of a battery."""
    calls = []

    def counting(profile):
        calls.append(profile)
        return swf(profile)

    per_trial = []
    run_battery = harness._run_battery

    def recording(axiom, trials, seed, run_one):
        def run(rng, t):
            before = len(calls)
            try:
                out = run_one(rng, t)
            except ScenarioRejected:
                per_trial.append((t, len(calls) - before, False))
                raise
            per_trial.append((t, len(calls) - before, True))
            return out

        return run_battery(axiom, trials, seed, run)

    monkeypatch.setattr(harness, "_run_battery", recording)
    run_axiom_battery(counting, axiom, trials, seed)
    return per_trial


def test_rm_trial_evaluates_the_base_profile_once(monkeypatch):
    # The draw evaluates the rule at the base profile, and the check the
    # base and the profile with the new agent: the check's base call is
    # answered from the draw's.
    seed = child_seed(20240801, "baru:restricted-monotonicity", 0)
    per_trial = _calls_per_trial(monkeypatch, baru, "restricted-monotonicity", 40, seed)
    completed = [(t, n) for t, n, done in per_trial if done]
    assert sum(t % 13 != 0 for t, _ in completed) >= 30
    assert all(n == 2 for _, n in completed), completed


def _rm_scenario_reference(rng, swf, variant):
    """`rm_scenario` with its full 40-try search for an opinionated agent."""
    space = harness.random_space(rng)
    n = rng.randint(3, 4)
    if variant == "indifferent":
        u = random_utility(rng, space)
        prefs = [INDIFFERENT] * n
        prefs[1] = Preference(random_density(rng), u)
        prefs[2] = Preference(random_density(rng), reversal(u))
        base = Profile(space, tuple(prefs))
        newpref = Preference(random_density(rng), random_utility(rng, space))
        labs = newpref.utility.labels
        lo = min(labs, key=newpref.utility.value)
        hi = max(labs, key=newpref.utility.value)
        f = Act.from_segments(((0.0, 1.0, hi),))
        g = Act.from_segments(((0.0, 1.0, lo),))
        return base, 0, newpref, f, g
    base = random_profile(rng, space, n_agents=n, n_concerned=2)
    agent = next(i for i in range(n) if base.agents[i].is_indifferent)
    before = swf(base)
    if before.preference.is_indifferent:
        raise ScenarioRejected("society indifferent at base")
    raw = dict(before.raw_utility)
    lo_lab = min(raw, key=raw.get)
    hi_lab = max(raw, key=raw.get)
    if raw[hi_lab] - raw[lo_lab] < 0.05:
        raise ScenarioRejected("society utility nearly flat")
    g = random_act(rng, space)
    evg = before.ev(g)
    tstar = min(max((evg - raw[lo_lab]) / (raw[hi_lab] - raw[lo_lab]), 0.0), 1.0)
    c = min(max(_cut_at_mass(before.belief, 0.0, 1.0, tstar), 0.0), 1.0)
    segs = []
    if c > 0.0:
        segs.append((0.0, c, hi_lab))
    if c < 1.0:
        segs.append((c, 1.0, lo_lab))
    f = Act.from_segments(tuple(segs))
    if variant == "tilted":
        grid = sorted(set(f.breakpoints()) | set(g.breakpoints()))
        belief = harness._fiber_tilt(rng, before.belief, grid)
    else:
        belief = before.belief
    for _ in range(40):
        npref = Preference(belief, random_utility(rng, space))
        if abs(compare(npref, f, g).diff) >= 1e-6:
            return base, agent, npref, f, g
    raise ScenarioRejected("no strictly opinionated new agent found")


def _same_draw(draw, reference, seed, *args):
    """The two draws on one seed, each as its repr or its rejection."""
    outs = []
    for fn in (draw, reference):
        try:
            outs.append(repr(fn(random.Random(seed), *args)))
        except ScenarioRejected as exc:
            outs.append(f"rejected: {exc}")
    assert outs[0] == outs[1], seed
    return outs[0]


def test_rm_scenario_matches_full_search():
    # every variant, with each rule as the draw's rule; the hopeless
    # searches end after one try and must reject with the same message
    hopeless = 0
    for rule in RULE_NAMES:
        swf = rule_by_name(rule)
        for t in range(290):
            variant = "indifferent" if t % 13 == 0 else "tilted" if t % 3 == 0 else "aligned"
            out = _same_draw(rm_scenario, _rm_scenario_reference, child_seed(13, rule, t), swf, variant)
            hopeless += out == "rejected: no strictly opinionated new agent found"
    assert hopeless >= 50


def test_hopeless_rm_draw_tries_one_new_agent(monkeypatch):
    # trials 10 (aligned) and 18 (tilted) of the pinned draws: f and g give
    # the new agent's belief the same lottery, so no utility separates them
    tries = []
    rule_called = []
    draw_utility = harness.random_utility

    def rule(profile):
        rule_called.append(profile)
        return baru(profile)

    def counting(rng, space):
        if rule_called:  # the base profile is drawn before the rule runs
            tries.append(space)
        return draw_utility(rng, space)

    monkeypatch.setattr(harness, "random_utility", counting)
    for t in (10, 18):
        tries.clear()
        rule_called.clear()
        with pytest.raises(ScenarioRejected, match="no strictly opinionated new agent found"):
            AXIOM_SPECS["restricted-monotonicity"].draw(
                random.Random(child_seed(20240801, "restricted-monotonicity", t)), t, rule
            )
        assert len(tries) == 1


@pytest.mark.parametrize("trials", [0, -2])
def test_battery_needs_a_trial(trials):
    # no trial would pass every axiom vacuously
    with pytest.raises(ValueError, match="at least one trial"):
        run_axiom_battery(rule_by_name("swf4"), "anonymity", trials, 1)


def test_unknown_axiom_raises():
    with pytest.raises(ValueError, match="unknown axiom"):
        run_axiom_battery(baru, "no-such-axiom", 3, 1)
    with pytest.raises(ValueError, match="unknown axiom"):
        rerun_witness(baru, {"axiom": "no-such-axiom", "scenario": {}})


def test_matrix_counts_partition():
    for trials in range(6, 5001):
        counts = matrix_counts(trials)
        assert sum(counts.values()) == trials
        assert counts["faithfulness"] == 1
        assert set(counts) == set(MATRIX_AXIOMS)
        assert min(counts.values()) >= 1, (trials, counts)
    with pytest.raises(ValueError):
        matrix_counts(3)


def test_matrix_counts_pinned_budgets():
    # criterion 5's budget and the benchmark's matrix workload
    assert matrix_counts(10001) == {
        "faithfulness": 1,
        "anonymity": 2600,
        "no-belief-imposition": 2600,
        "restricted-monotonicity": 2600,
        "independence-redundant-acts": 1300,
        "continuity": 900,
    }
    assert matrix_counts(845) == {
        "faithfulness": 1,
        "anonymity": 220,
        "no-belief-imposition": 219,
        "restricted-monotonicity": 219,
        "independence-redundant-acts": 110,
        "continuity": 76,
    }


BATTERY_SPOT_CHECKS = (
    # rule, axiom, trials enough to expose the designed defect
    ("swf1", "restricted-monotonicity", 150),
    ("swf2", "independence-redundant-acts", 40),
    ("swf3", "faithfulness", 1),
    ("swf4", "no-belief-imposition", 60),
    ("swf4", "anonymity", 40),
    ("swf5", "continuity", 20),
    ("swf6", "anonymity", 10),
)


@pytest.mark.parametrize("rule,axiom,trials", BATTERY_SPOT_CHECKS)
def test_designed_defects_surface(rule, axiom, trials):
    seed = child_seed(20240801, f"{rule}:{axiom}", 0)
    v = run_axiom_battery(rule_by_name(rule), axiom, trials, seed)
    assert not v.satisfied
    assert v.witness is not None


@pytest.mark.parametrize(
    "axiom,trials",
    [(a, 25 if a == "continuity" else 60) for a in (*MATRIX_AXIOMS, "restricted-pareto")],
)
def test_baru_clean_small_batteries(axiom, trials):
    seed = child_seed(20240801, f"baru:{axiom}", 0)
    v = run_axiom_battery(baru, axiom, trials, seed)
    assert v.satisfied, v.witness


def test_witness_rerun_is_deterministic():
    seed = child_seed(20240801, "swf6:anonymity", 0)
    v = run_axiom_battery(rule_by_name("swf6"), "anonymity", 10, seed)
    assert not v.satisfied
    blob = json.loads(json.dumps(v.witness))  # survive a serialization trip
    again = rerun_witness(rule_by_name("swf6"), blob)
    assert not again.satisfied
    # the rerun reproduces the underlying checker's witness exactly
    assert json.loads(json.dumps(again.witness)) == blob["detail"]


def test_witness_rerun_rm_defect():
    seed = child_seed(20240801, "swf1:restricted-monotonicity", 0)
    v = run_axiom_battery(rule_by_name("swf1"), "restricted-monotonicity", 150, seed)
    assert not v.satisfied
    again = rerun_witness(rule_by_name("swf1"), v.witness)
    assert not again.satisfied


def test_run_matrix_small_swf3():
    report = run_matrix(rules=("swf3",), trials=30, seed=20240801)
    got = matrix_violations(report)
    assert got["swf3"] == frozenset({"faithfulness"})
    assert report["rules"]["swf3"]["faithfulness"]["verdict"] == "violated"
    assert report["seed"] == 20240801


def test_expected_violations_table_shape():
    assert set(EXPECTED_VIOLATIONS) == {"baru", "swf1", "swf2", "swf3", "swf4", "swf5", "swf6"}
    assert EXPECTED_VIOLATIONS["baru"] == frozenset()
    for name, axs in EXPECTED_VIOLATIONS.items():
        assert axs <= set(MATRIX_AXIOMS)


def _pairflat_density_reference(rng):
    """`_pairflat_density` with its own rescaling, as before it called
    `discount_to_belief`."""
    from math import fsum

    from baru import Density

    raw = [rng.uniform(0.15, 2.0) for _ in range(8)]
    total = fsum(v / 8.0 for v in raw)
    vals = [v / total for v in raw]
    bps = tuple(j / 8 for j in range(9))
    return Density(bps, tuple(vals)), vals


def test_pairflat_density_matches_own_rescaling():
    from baru.harness import _pairflat_density

    for seed in range(2100):
        a, b = random.Random(seed), random.Random(seed)
        d = _pairflat_density(a)
        d_ref, vals_ref = _pairflat_density_reference(b)
        assert repr(d) == repr(d_ref)
        assert repr(list(d.values)) == repr(vals_ref)
        assert a.getstate() == b.getstate()


def test_half_null_entry_does_not_decode():
    belief = {"breakpoints": [0.0, 1.0], "values": [1.0]}
    utility = {"a": 1.0, "b": 0.0, "c": 0.5, "d": 0.0}
    for entry in ({"belief": None, "utility": utility}, {"belief": belief, "utility": None}):
        with pytest.raises(ValueError):
            preference_from_dict(entry)
        data = {"outcomes": list(SPACE.labels), "agents": [entry, entry, entry]}
        with pytest.raises(ValueError):
            profile_from_dict(data)


def test_rerun_witness_refuses_a_half_null_agent():
    seed = child_seed(20240801, "swf4:anonymity", 0)
    v = run_axiom_battery(rule_by_name("swf4"), "anonymity", 50, seed)
    assert not v.satisfied
    witness = json.loads(json.dumps(v.witness))
    agents = witness["scenario"]["profile"]["agents"]
    k = next(k for k, a in enumerate(agents) if a["belief"] is not None)
    agents[k]["belief"] = None
    with pytest.raises(ValueError):
        rerun_witness(rule_by_name("swf4"), witness)


def test_int_numbers_decode_to_the_float_profile():
    ints = {
        "outcomes": ["a", "b", "c", "d"],
        "agents": [
            {"belief": {"breakpoints": [0, 0.5, 1], "values": [2, 0]}, "utility": {"a": 1, "b": 0, "c": 0, "d": 0}},
            {"belief": {"breakpoints": [0, 1], "values": [1]}, "utility": {"a": 0, "b": 1, "c": 1, "d": 0}},
            {"belief": None, "utility": None},
        ],
    }
    floats = json.loads(json.dumps(ints), parse_int=float)
    got, want = profile_from_dict(ints), profile_from_dict(floats)
    assert got == want and repr(got) == repr(want)
    assert repr(got.agents[0].belief.breakpoints) == "(0.0, 0.5, 1.0)"
    assert repr(preference_from_dict(ints["agents"][0])) == repr(want.agents[0])
