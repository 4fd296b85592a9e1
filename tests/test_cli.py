"""End-to-end tests for the command-line surface.

Most tests call ``main`` in-process and capture stdout/stderr; one
subprocess test checks the module entry point.  Fixture files are
written under tmp_path.
"""

import hashlib
import json
import math
import subprocess
import sys

import pytest

from baru import (
    __version__,
    preference_as_dict,
    preference_from_dict,
    profile_as_dict,
    rerun_witness,
    rule_by_name,
    swf2,
    swf3,
    swf5,
)
from baru.axioms import AxiomVerdict, ScenarioRejected
from baru.cli import _profile_first_check, load_profile, main
from baru.harness import AXIOM_SPECS, AxiomSpec

TABLE1 = {
    "outcomes": ["a", "b", "c", "d"],
    "grid": [0, 0.5, 1],
    "agents": [
        {"belief": {"values": [1.8, 0.2]}, "utility": {"a": 1, "b": 0, "c": 0.9, "d": 0}},
        {"belief": {"values": [0.2, 1.8]}, "utility": {"a": 0, "b": 1, "c": 0.8, "d": 0}},
        {"belief": None, "utility": None},
    ],
}

ACTS = {"acts": {"f": [[0, 0.5, "a"], [0.5, 1, "b"]], "g": [[0, 1, "c"]]}}

PREF_A = {
    "grid": [0, 0.5, 1],
    "belief": {"values": [1.8, 0.2]},
    "utility": {"a": 1, "b": 0, "c": 0.9, "d": 0},
}

PREF_B = {
    "belief": {"breakpoints": [0, 0.5, 1], "values": [0.2, 1.8]},
    "utility": {"a": 0, "b": 1, "c": 0.8, "d": 0},
}


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def table1_file(tmp_path):
    return _write(tmp_path, "table1.json", TABLE1)


@pytest.fixture
def acts_file(tmp_path):
    return _write(tmp_path, "acts.json", ACTS)


def _vertex_sets_close(got, want, tol=1e-9):
    assert len(got) == len(want)
    for g, w in zip(sorted(map(tuple, got)), sorted(map(tuple, want))):
        assert g == pytest.approx(w, abs=tol)


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_baru_table1(table1_file, acts_file, capsys):
    rc = main(["aggregate", table1_file, "--acts", acts_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == __version__
    assert report["rule"] == "baru"
    assert report["concerned"] == [0, 1]
    assert report["belief_summary"] == "0.5/0.5"
    assert report["raw_utility"]["c"] == pytest.approx(1.7, abs=1e-12)
    assert report["society"]["utility"]["c"] == 1.0
    assert report["society"]["utility"]["d"] == 0.0
    assert report["expected_values"]["f"] == pytest.approx(1.0, abs=1e-12)
    assert report["expected_values"]["g"] == pytest.approx(1.7, abs=1e-12)
    assert report["ranking"] == "g ≻ f"


def test_aggregate_swf4_follows_first_belief(table1_file, acts_file, capsys):
    rc = main(["aggregate", table1_file, "--swf", "swf4", "--acts", acts_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["belief_summary"] == "0.9/0.1"
    assert report["belief_weights"] == [[0, 1.0], [1, 0.0]]
    assert report["ranking"] == "g ≻ f"


def test_aggregate_default_acts_rank_constants(table1_file, capsys):
    rc = main(["aggregate", table1_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["expected_values"]) == {"a", "b", "c", "d"}
    assert report["ranking"] == "c ≻ a ∼ b ≻ d"


def test_aggregate_all_indifferent(tmp_path, capsys):
    path = _write(
        tmp_path,
        "indiff.json",
        {"outcomes": ["a", "b", "c", "d"], "agents": [{"belief": None, "utility": None}] * 3},
    )
    rc = main(["aggregate", path])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["society"] == "complete indifference"
    assert report["concerned"] == []
    assert "ranking" not in report


def test_aggregate_weighted_from_profile_params(tmp_path, capsys):
    data = dict(TABLE1, params={"weights": {"belief": [2, 1], "utility": [2, 1]}})
    path = _write(tmp_path, "weighted.json", data)
    rc = main(["aggregate", path, "--swf", "weighted"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["belief_segment_masses"][0][2] == pytest.approx(1.9 / 3, abs=1e-12)
    # utility weights (2,1,1) renormalize to mean one: agent 0 counts 1.5x
    assert report["raw_utility"]["a"] == pytest.approx(1.5, abs=1e-12)


def test_aggregate_weighted_requires_params(table1_file, capsys):
    rc = main(["aggregate", table1_file, "--swf", "weighted"])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert "params.weights" in diag["error"]


def test_aggregate_params_file_override(table1_file, tmp_path, capsys):
    params = _write(tmp_path, "params.json", {"weights": {"belief": [2, 1], "utility": [2, 1]}})
    rc = main(["aggregate", table1_file, "--swf", "weighted", "--params", params])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["belief_segment_masses"][0][2] == pytest.approx(1.9 / 3, abs=1e-12)


@pytest.mark.parametrize("argv", [["aggregate"], ["axiom-report", "--trials", "3"]])
def test_beliefs_at_the_mass_tolerance_exit_0(edge_profile, tmp_path, capsys, argv):
    # baru's society belief on this profile integrates past 1 + TOL_MEASURE
    # by rounding alone; aggregating it and probing the axioms on it succeed
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(edge_profile))
    assert main([*argv, str(path)]) == 0
    assert isinstance(json.loads(capsys.readouterr().out), dict)


def test_axiom_report_on_a_utility_at_the_exact_tolerance(utility_near_one, tmp_path, capsys):
    # the continuity probe of scenario zero mixes this utility with its
    # square past 1 + TOL_EXACT, and still reports
    path = tmp_path / "near.json"
    path.write_text(json.dumps(profile_as_dict(utility_near_one)))
    assert main(["axiom-report", "--trials", "3", str(path)]) == 0
    out, err = capsys.readouterr()
    assert isinstance(json.loads(out), dict) and "Traceback" not in err


# ---------------------------------------------------------------------------
# axiom-report


def test_axiom_report_baru_clean(capsys):
    rc = main(["axiom-report", "--swf", "baru", "--trials", "20"])
    assert rc == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["version"] == __version__
    assert report["seed"] == 20240801
    assert len(report["axioms"]) == 6
    assert all(v["verdict"] == "satisfied-on-sample" for v in report["axioms"].values())
    table = captured.err.strip().splitlines()
    assert len(table) == 6
    assert all("satisfied-on-sample" in line for line in table)


def test_axiom_report_swf3_faithfulness_violated(capsys):
    rc = main(["axiom-report", "--swf", "swf3", "--trials", "5"])
    assert rc == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["axioms"]["faithfulness"]["verdict"] == "violated"
    assert report["axioms"]["faithfulness"]["witness"] is not None
    assert any("faithfulness" in line and "violated" in line for line in captured.err.splitlines())


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_axiom_report_refuses_no_trials(capsys, trials):
    # no trial would make every axiom pass vacuously
    rc = main(["axiom-report", "--swf", "swf4", "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diag = json.loads(captured.err)
    assert diag == {"error": "--trials must be at least 1", "trials": int(trials)}


def test_axiom_report_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["axiom-report", "--swf", "swf3", "--trials", "3", "--out", str(out)])
    assert rc == 1
    stdout = capsys.readouterr().out
    assert json.loads(out.read_text()) == json.loads(stdout)


def test_axiom_report_profile_first_checks(table1_file, capsys):
    # the supplied profile itself convicts swf4 before any battery runs
    rc = main(["axiom-report", table1_file, "--swf", "swf4", "--trials", "20"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    anon = report["axioms"]["anonymity"]
    nbi = report["axioms"]["no-belief-imposition"]
    assert anon["verdict"] == "violated" and anon["trials"] == 1  # first swap convicts
    assert nbi["verdict"] == "violated" and nbi["trials"] < 20
    assert report["axioms"]["faithfulness"]["verdict"] == "satisfied-on-sample"
    # scenario-zero witnesses replay like battery witnesses
    for v in (anon, nbi):
        assert v["witness"]["trial"] is None and v["witness"]["seed"] is None
        assert not rerun_witness(rule_by_name("swf4"), v["witness"]).satisfied


def test_profile_first_check_skips_only_rejected_scenarios(table1, monkeypatch):
    profile, _, _ = table1
    first, second = profile.concerned

    def check(swf, sc):
        if sc["agent"] == first:
            raise ScenarioRejected("perturbation target must be concerned")
        return AxiomVerdict("continuity", False, 1, {"agent": sc["agent"]})

    real = AXIOM_SPECS["continuity"]
    monkeypatch.setitem(AXIOM_SPECS, "continuity", AxiomSpec(real.draw, check, real.zero))
    v = _profile_first_check(rule_by_name("baru"), "continuity", profile)
    assert not v.satisfied
    assert v.witness["scenario"]["agent"] == second


def test_axiom_report_pareto_flag(capsys):
    rc = main(["axiom-report", "--swf", "baru", "--trials", "15", "--pareto"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["axioms"]) == 7
    assert report["axioms"]["restricted-pareto"]["verdict"] == "satisfied-on-sample"


# ---------------------------------------------------------------------------
# scenario


def test_scenario_table1(capsys):
    rc = main(["scenario", "table1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "table1"
    assert report["agent_evs"] == [[0.9, 0.9], [0.9, 0.8]]
    assert report["society_verdict"] == "second"
    assert report["ex_ante"] == pytest.approx([1.8, 1.7], abs=1e-12)
    assert report["spurious"]["favored"] == "f"
    assert report["common_belief_window"] == pytest.approx([0.2, 0.9], abs=1e-3)
    assert len(report["profile"]["agents"]) == 3
    assert report["acts"]["g"] == [[0.0, 1.0, "c"]]


def test_scenario_horses(capsys):
    rc = main(["scenario", "horses"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["agent_evs"] == [[0.5, 0.5], [0.5, 0.5]]
    assert report["averaging_verdict"] == "tie"
    assert report["pooled_horse_probs"] == [0.0, 0.0, 1.0]
    assert report["pooled_verdict"] == "second"
    assert report["pushforwards_match"] is True


def test_scenario_fig1_emits_figure_files(tmp_path, capsys):
    svg = tmp_path / "fig.svg"
    csv = tmp_path / "fig.csv"
    rc = main(["scenario", "fig1", "--svg", str(svg), "--csv", str(csv)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["anchored"]["verdict"] == "violated"
    assert report["equal_weight"]["verdict"] == "satisfied-on-sample"
    _vertex_sets_close(report["vertices"], [[0, 0.7], [0.4, 0], [1, 0.5], [0.9, 1]])
    _vertex_sets_close(report["restricted_vertices"], report["vertices"])
    text = svg.read_text()
    assert text.startswith("<svg") and "polygon" in text and "EV₁" in text
    assert csv.read_text().startswith("set,kind,x1,x2,x3,value")


# ---------------------------------------------------------------------------
# image


def test_image_two_agents(table1_file, tmp_path, capsys):
    svg = tmp_path / "img.svg"
    csv = tmp_path / "img.csv"
    rc = main(["image", table1_file, "--svg", str(svg), "--csv", str(csv)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 2
    assert report["agents"] == [0, 1]
    _vertex_sets_close(
        report["vertices"],
        [[0, 0], [1, 0], [0.99, 0.72], [0.9, 0.9], [0.81, 0.98], [0, 1]],
    )
    text = svg.read_text()
    assert "polygon" in text and "EV₂" in text
    rows = csv.read_text().splitlines()
    assert rows[0] == "set,kind,x1,x2,x3,value"
    assert any(r.startswith("full,vertex,") for r in rows)
    assert any(r.startswith("full,support,") for r in rows)


def test_image_restricted_overlay(table1_file, tmp_path, capsys):
    svg = tmp_path / "img.svg"
    rc = main(["image", table1_file, "--restrict", ",c,d", "--svg", str(svg)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["restricted_vertices"] is not None
    full = sorted(map(tuple, report["vertices"]))
    sub = sorted(map(tuple, report["restricted_vertices"]))
    assert full != sub
    assert (0.9, 0.9) not in {tuple(v) for v in sub}
    assert "stroke-dasharray" in svg.read_text()


def test_image_restrict_coarsening_file(table1_file, tmp_path, capsys):
    from baru import Coarsening

    qfile = _write(tmp_path, "identity.json", Coarsening.identity().as_dict())
    rc = main(["image", table1_file, "--restrict", qfile])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    _vertex_sets_close(report["restricted_vertices"], report["vertices"])


def test_image_refuses_coarsening_without_proper_pushforward(table1_file, tmp_path, capsys):
    # the second piece's slope is 2e-320: a belief pushed through it
    # overflows to an infinite density, and no file is written
    qfile = _write(tmp_path, "steep.json", {"pieces": [[0, 0.5, 0, 1, 1], [0.5, 1, 0, 1e-320, 1]]})
    svg, csv = tmp_path / "s.svg", tmp_path / "s.csv"
    rc = main(["image", table1_file, "--restrict", qfile + ",a,b", "--svg", str(svg), "--csv", str(csv)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "coarsening has no proper pushforward" and diag["file"] == qfile
    assert not svg.exists() and not csv.exists()


@pytest.mark.parametrize("concerned", [2, 1])
def test_image_refuses_empty_outcome_list(tmp_path, capsys, concerned):
    # the outcome list holds only blanks; a one-agent image fails alike
    data = _with()
    if concerned == 1:
        data["agents"][1] = {"belief": None, "utility": None}
    path = _write(tmp_path, "profile.json", data)
    svg, csv = tmp_path / "e.svg", tmp_path / "e.csv"
    rc = main(["image", path, "--restrict", ", ,", "--svg", str(svg), "--csv", str(csv)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "restriction needs at least one outcome"
    assert not svg.exists() and not csv.exists()


def test_image_three_agents_csv_only(tmp_path, capsys):
    data = dict(TABLE1)
    data["agents"] = data["agents"][:2] + [
        {"belief": {"values": [1.0, 1.0]}, "utility": {"a": 0, "b": 0, "c": 1, "d": 1}}
    ]
    path = _write(tmp_path, "three.json", data)
    csv = tmp_path / "img.csv"

    rc = main(["image", path, "--csv", str(csv)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 3
    assert csv.read_text().startswith("set,kind,x1,x2,x3,value")

    rc = main(["image", path, "--svg", str(tmp_path / "img.svg")])
    captured = capsys.readouterr()
    assert rc == 2
    diag = json.loads(captured.err.strip())
    assert diag["dimension"] == 3

    # a refused call writes nothing, not even the CSV it could have made
    both = tmp_path / "both.csv"
    rc = main(["image", path, "--csv", str(both), "--svg", str(tmp_path / "both.svg")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["dimension"] == 3
    assert not both.exists() and not (tmp_path / "both.svg").exists()


@pytest.mark.parametrize("orient", [1.7, -1.5])
def test_image_restrict_refuses_non_integral_orient(table1_file, tmp_path, capsys, orient):
    qfile = _write(tmp_path, "q.json", {"pieces": [[0, 1, 0, 1, orient]]})
    rc = main(["image", table1_file, "--restrict", qfile])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "invalid coarsening",
        "file": qfile,
        "detail": "orient must be +1 or -1",
    }


# ---------------------------------------------------------------------------
# distance


def test_distance_identical(tmp_path, capsys):
    path = _write(tmp_path, "pref.json", PREF_A)
    rc = main(["distance", path, path])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["distance"] == 0.0
    assert report["out_of_metric"] is False


def test_distance_table1_pair_via_files(tmp_path, capsys):
    a = _write(tmp_path, "a.json", PREF_A)
    b = _write(tmp_path, "b.json", PREF_B)
    rc = main(["distance", a, b])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["distance"] == pytest.approx(1.0, abs=1e-12)


def test_distance_table1_pair_via_profile(table1_file, capsys):
    rc = main(["distance", table1_file, table1_file, "--agent-a", "0", "--agent-b", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["distance"] == pytest.approx(1.0, abs=1e-12)


def test_distance_vs_indifferent_flagged(tmp_path, capsys):
    a = _write(tmp_path, "a.json", PREF_A)
    n = _write(tmp_path, "n.json", {"belief": None, "utility": None})
    rc = main(["distance", a, n])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["distance"] == 1.0
    assert report["out_of_metric"] is True


def test_distance_profile_requires_agent_selector(table1_file, capsys):
    rc = main(["distance", table1_file, table1_file, "--agent-b", "1"])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert "--agent-a" in diag["error"]


def test_distance_label_mismatch(tmp_path, capsys):
    a = _write(tmp_path, "a.json", PREF_A)
    other = dict(PREF_A, utility={"w": 1, "x": 0, "y": 0.9, "z": 0})
    b = _write(tmp_path, "b.json", other)
    rc = main(["distance", a, b])
    assert rc == 2
    assert "different outcomes" in json.loads(capsys.readouterr().err.strip())["error"]


# ---------------------------------------------------------------------------
# diagnostics and ingestion


def test_invalid_json_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"outcomes": ["a", "b",\n  oops\n}')
    rc = main(["aggregate", str(path)])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "invalid JSON"
    assert diag["line"] == 2


def test_missing_file_diagnostic(tmp_path, capsys):
    rc = main(["aggregate", str(tmp_path / "nope.json")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "cannot read file"


def test_short_outcome_space_rejected(tmp_path, capsys):
    data = dict(TABLE1, outcomes=["a", "b", "c"])
    path = _write(tmp_path, "short.json", data)
    rc = main(["aggregate", path])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "invalid outcome space"


def test_half_null_agent_rejected(tmp_path, capsys):
    data = json.loads(json.dumps(TABLE1))
    data["agents"][1]["belief"] = None
    path = _write(tmp_path, "half.json", data)
    rc = main(["aggregate", path])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["agent"] == 1


def test_unknown_act_outcome_rejected(table1_file, tmp_path, capsys):
    acts = _write(tmp_path, "bad_acts.json", {"acts": {"f": [[0, 1, "z"]]}})
    rc = main(["aggregate", table1_file, "--acts", acts])
    assert rc == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["error"] == "act uses unknown outcome"
    assert diag["outcome"] == "z"


def test_belief_values_need_grid(tmp_path, capsys):
    data = json.loads(json.dumps(TABLE1))
    del data["grid"]
    path = _write(tmp_path, "nogrid.json", data)
    rc = main(["aggregate", path])
    assert rc == 2
    assert "grid" in json.loads(capsys.readouterr().err.strip())["error"]


def test_profile_round_trip(table1_file, tmp_path):
    data = dict(TABLE1, params={"weights": {"belief": [2, 1], "utility": [2, 1]}})
    first = _write(tmp_path, "first.json", data)
    profile, params = load_profile(first)
    blob = dict(profile_as_dict(profile), params=params)
    second = _write(tmp_path, "second.json", blob)
    profile2, params2 = load_profile(second)
    assert dict(profile_as_dict(profile2), params=params2) == blob


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "baru.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def _with(**changes):
    data = json.loads(json.dumps(TABLE1))
    data.update(changes)
    return data


_MALFORMED = [
    pytest.param(command, _with(grid=grid), argv, id=f"{command}-grid-{name}")
    for command, argv in (
        ("aggregate", []),
        ("axiom-report", ["--trials", "1"]),
        ("distance", ["--agent-a", "0", "--agent-b", "1"]),
    )
    for name, grid in (("zero", ["zero", 0.5, 1]), ("5", 5))
] + [
    pytest.param("aggregate", _with(outcomes=5), [], id="outcomes-5"),
    pytest.param("aggregate", _with(agents=5), [], id="agents-5"),
    pytest.param("aggregate", _with(params={"alpha": ["x"]}), ["--swf", "swf5"], id="alpha-x"),
    pytest.param("aggregate", _with(params={"alpha": 3}), ["--swf", "swf5"], id="alpha-3"),
    pytest.param(
        "aggregate",
        _with(params={"weights": {"belief": 5, "utility": [1, 1]}}),
        ["--swf", "weighted"],
        id="weights-belief-5",
    ),
    pytest.param("aggregate", _with(params={"anchor": [1, 2]}), ["--swf", "swf2"], id="anchor-list"),
    pytest.param(
        "aggregate",
        _with(params={"anchor": {"belief": None, "utility": None}}),
        ["--swf", "swf2"],
        id="anchor-indifferent",
    ),
    pytest.param(
        "aggregate",
        # agents 0 and 2 share a preference, a group of two
        _with(agents=[*TABLE1["agents"][:2], TABLE1["agents"][0]], params={"alpha": [1.5]}),
        ["--swf", "swf5"],
        id="alpha-shorter-than-group",
    ),
    pytest.param(
        "image", _with(agents=[{"belief": None, "utility": None}] * 3), [], id="image-no-concerned"
    ),
]


@pytest.mark.parametrize("command, data, argv", _MALFORMED)
def test_malformed_input_exits_2_with_one_diagnostic(tmp_path, capsys, command, data, argv):
    path = _write(tmp_path, "bad.json", data)
    files = [path, path] if command == "distance" else [path]
    rc = main([command, *files, *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert json.loads(lines[0])["file"] == path


_CUSTOM = {
    "belief": {"breakpoints": [0, 0.25, 1], "values": [2.2, 0.6]},
    "utility": {"a": 0.3, "b": 1, "c": 0, "d": 0.6},
}


def _same_result(report, want):
    """The aggregate report reads the rule's result, float for float."""
    assert report["society"] == json.loads(json.dumps(preference_as_dict(want.preference)))
    assert report["raw_utility"] == dict(want.raw_utility)
    assert report["utility_weights"] == [[i, w] for i, w in want.utility_weights]


@pytest.mark.parametrize("swf, key, rule", [("swf2", "anchor", swf2), ("swf3", "phantom", swf3)])
def test_aggregate_custom_anchor_on_own_space(tmp_path, capsys, swf, key, rule):
    path = _write(tmp_path, "custom.json", _with(params={key: _CUSTOM}))
    rc = main(["aggregate", path, "--swf", swf])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    profile, _ = load_profile(path)
    want = rule(profile, preference_from_dict(_CUSTOM))
    _same_result(report, want)
    assert want.raw_utility != rule_by_name(swf)(profile).raw_utility


def test_aggregate_swf5_alpha(tmp_path, capsys):
    # agents 0 and 2 share a preference: one group of two, one of one
    first, second, _ = TABLE1["agents"]
    path = _write(tmp_path, "twins.json", _with(agents=[first, second, first], params={"alpha": [1.5, 0.25]}))
    rc = main(["aggregate", path, "--swf", "swf5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    profile, _ = load_profile(path)
    want = swf5(profile, lambda m: (1.5, 0.25)[m - 1])
    _same_result(report, want)
    assert want.raw_utility != swf5(profile).raw_utility


def test_grid_file_and_witness_form_decode_alike(table1_file, tmp_path):
    from baru import profile_as_dict, profile_from_dict

    profile, _ = load_profile(table1_file)
    blob = json.loads(json.dumps(profile_as_dict(profile)))
    assert "grid" not in blob
    via_file, _ = load_profile(_write(tmp_path, "blob.json", blob))
    for other in (via_file, profile_from_dict(blob)):
        assert other == profile and repr(other) == repr(profile)


@pytest.mark.parametrize(
    "params, swf",
    [
        ({"alpha": [math.nan]}, "swf5"),
        ({"weights": {"belief": [math.nan, 1], "utility": [1, 1]}}, "weighted"),
        ({"weights": {"belief": [1, 1], "utility": [math.inf, 1]}}, "weighted"),
    ],
    ids=["alpha-nan", "weights-nan", "weights-infinity"],
)
def test_non_finite_weights_exit_2_with_one_diagnostic(tmp_path, capsys, params, swf):
    # json writes and reads these as NaN and Infinity; the rule must not run
    path = _write(tmp_path, "nonfinite.json", _with(params=params))
    assert ("NaN" if "nan" in repr(params) else "Infinity") in open(path).read()
    rc = main(["aggregate", path, "--swf", swf])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert json.loads(lines[0])["file"] == path


# ---------------------------------------------------------------------------
# pinned bytes: exit code, stdout and stderr of a fixed set of calls

_ONE = json.loads(json.dumps(TABLE1))
_ONE["agents"][1] = {"belief": None, "utility": None}
_THREE = json.loads(json.dumps(TABLE1))
_THREE["agents"][2] = {"belief": {"values": [1.0, 1.0]}, "utility": {"a": 0, "b": 0, "c": 1, "d": 1}}

_PIN_FILES = {
    "table1.json": TABLE1,
    "one.json": _ONE,
    "three.json": _THREE,
    "indiff.json": _with(agents=[{"belief": None, "utility": None}] * 3),
    "weights.json": {"weights": {"belief": [2, 1], "utility": [2, 1]}},
    "pref_a.json": PREF_A,
    "pref_b.json": PREF_B,
    "pref_x.json": {"belief": PREF_A["belief"], "grid": [0, 0.5, 1], "utility": {"a": 1, "z": 0}},
    "acts.json": ACTS,
    "acts_obj.json": {"acts": 5},
    "acts_empty.json": {"acts": {}},
    "acts_short.json": {"acts": {"f": [[0, 1]]}},
    "acts_int.json": {"acts": {"f": 5}},
    "acts_num.json": {"acts": {"f": [[0, "x", "a"]]}},
    "acts_gap.json": {"acts": {"f": [[0, 0.5, "a"]]}},
    "acts_unknown.json": {"acts": {"f": [[0, 1, "z"]]}},
    "broken.json": '{"acts": [\n  oops\n}',
    "q_identity.json": {"pieces": [[0, 1, 0, 1, 1]]},
    "q_fold.json": {"pieces": [[0, 0.5, 0, 1, 1], [0.5, 1, 0, 1, -1]]},
    "q_nopieces.json": {"x": 1},
    "q_list.json": [1, 2],
    "q_short.json": {"pieces": [[0, 1, 0, 1]]},
    "q_int.json": {"pieces": 5},
    "q_empty.json": {"pieces": []},
    "q_orient2.json": {"pieces": [[0, 1, 0, 1, 2]]},
    "q_orient_x.json": {"pieces": [[0, 1, 0, 1, "x"]]},
    "q_orient17.json": {"pieces": [[0, 1, 0, 1, 1.7]]},
    "q_cover.json": {"pieces": [[0, 1, 0, 0.5, 1]]},
    "q_flat.json": {"pieces": [[0, 1, 0.5, 0.5, 1]]},
    # utilities u and 1 - u: the summed utility is constant
    "cancel.json": _with(
        agents=[
            {"belief": {"values": [1.8, 0.2]}, "utility": {"a": 1, "b": 0, "c": 0.9, "d": 0.25}},
            {"belief": {"values": [0.2, 1.8]}, "utility": {"a": 0, "b": 1, "c": 0.1, "d": 0.75}},
            {"belief": None, "utility": None},
        ]
    ),
}

# sha256 of [exit code, stdout, stderr], first 16 hex digits.  Written CSV
# and SVG files are left out: the CSV's direction columns, and the support
# rows taken at them, come from numpy's cos and sin in `direction_set`,
# whose bits depend on numpy's build.
_PINNED_CALLS = [
    ("aggregate table1.json", "27a4fd2be642cbf7"),
    ("aggregate table1.json --acts acts.json", "0235633fc53cc3c7"),
    ("aggregate table1.json --swf swf4 --acts acts.json", "e2519003e7367ed2"),
    ("aggregate table1.json --swf weighted --params weights.json", "b585fd0052eaeed4"),
    ("aggregate indiff.json", "c83d7926a0557540"),
    ("aggregate cancel.json", "534dae90ef54f679"),
    ("aggregate table1.json --acts acts_obj.json", "67cee9a8d009a5f9"),
    ("aggregate table1.json --acts acts_empty.json", "e14b8b99645fc7a3"),
    ("aggregate table1.json --acts acts_short.json", "769425f884923978"),
    ("aggregate table1.json --acts acts_int.json", "02b539a28cc3395f"),
    ("aggregate table1.json --acts acts_num.json", "aa2dcd914a149e95"),
    ("aggregate table1.json --acts acts_gap.json", "ded9cac1afd46c7d"),
    ("aggregate table1.json --acts acts_unknown.json", "9300b1dbe8c7fed7"),
    ("aggregate table1.json --acts broken.json", "25b429b7caaf7dcd"),
    ("aggregate table1.json --acts nope.json", "48f2b2397a4f43cf"),
    ("axiom-report --trials 2", "54b916ff155b72eb"),
    ("axiom-report --swf swf3 --trials 2 --out report.json", "c9c63f3366fe62e5"),
    ("axiom-report --swf swf5 --trials 2 --pareto", "5ceb9bdaa0895a51"),
    ("axiom-report table1.json --swf swf4 --trials 3", "122e1cd433bc5b0c"),
    ("axiom-report table1.json --swf baru --trials 2", "54b916ff155b72eb"),
    ("axiom-report three.json --swf swf6 --trials 2", "4ebb26bee34cfbde"),
    ("axiom-report --trials 0", "6db2943acf7c3865"),
    ("image one.json", "69f2f16289b9f31a"),
    ("image table1.json", "87b58416253467a5"),
    ("image table1.json --svg t.svg --csv t.csv", "5e68451bb130f35d"),
    ("image table1.json --restrict ,c,d --svg r.svg", "1c22dfafad7df7cc"),
    ("image table1.json --restrict q_identity.json", "bfeb23f0f967edd6"),
    ("image table1.json --restrict q_fold.json,c,d --csv f.csv", "324324e132c2ec76"),
    ("image table1.json --restrict ,c,z", "9b3146b8e4e4a722"),
    ("image table1.json --restrict q_nopieces.json", "3a432caf9ccb2655"),
    ("image table1.json --restrict q_list.json", "e41e9d4da8c75657"),
    ("image table1.json --restrict q_short.json", "21237019078fa462"),
    ("image table1.json --restrict q_int.json", "fdfac54ab3f10536"),
    ("image table1.json --restrict q_empty.json", "e4f66a15222b0bde"),
    ("image table1.json --restrict q_orient2.json", "3812886a14090930"),
    ("image table1.json --restrict q_orient_x.json", "43272025e30d05e6"),
    ("image table1.json --restrict q_cover.json", "c9439135f84bb0cf"),
    ("image table1.json --restrict q_flat.json", "435ff06c0cdd8eeb"),
    ("image table1.json --restrict broken.json", "25b429b7caaf7dcd"),
    ("image table1.json --restrict nope.json", "48f2b2397a4f43cf"),
    ("image three.json --svg s.svg", "f06836cce03b304b"),
    ("image three.json --csv x.csv --svg y.svg", "f06836cce03b304b"),
    ("image indiff.json", "c4c0344a89ab4f47"),
    ("image table1.json --restrict q_orient17.json", "84cb0a91f6b06978"),
    ("scenario table1", "46ca7ced26bb49e2"),
    ("scenario horses", "93a66acafaba4879"),
    ("scenario fig1", "26132e5954f0bc39"),
    ("scenario fig1 --svg g.svg --csv g.csv", "f405a9415282422e"),
    ("distance pref_a.json pref_b.json", "820f52b7d8faf56f"),
    ("distance table1.json table1.json --agent-a 0 --agent-b 1", "820f52b7d8faf56f"),
    ("distance table1.json table1.json --agent-a 0 --agent-b 2", "25e6da1ccd631e7d"),
    ("distance table1.json pref_b.json", "050f85b631ed5cb0"),
    ("distance table1.json pref_b.json --agent-a 7", "04ec4476e2864a16"),
    ("distance pref_a.json pref_x.json", "1f4a17c3c6a5df41"),
]


def _call_digest(argv, capsys):
    try:
        code = main(argv)
    except Exception as exc:  # the console script would print a traceback
        code = f"raised {type(exc).__name__}: {exc}"
    captured = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, captured.out, captured.err]).encode()).hexdigest()[:16]


def test_cli_bytes_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, data in _PIN_FILES.items():
        (tmp_path / name).write_text(data if isinstance(data, str) else json.dumps(data))
    for call, pin in _PINNED_CALLS:
        assert _call_digest(call.split(), capsys) == pin, f"`baru {call}` moved"
