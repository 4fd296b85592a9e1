"""End-to-end tests for the command-line surface.

Most tests call ``main`` in-process and capture stdout/stderr; one
subprocess test checks the module entry point.  Fixture files are
written under tmp_path.
"""

import json
import subprocess
import sys

import pytest

from baru import __version__, rerun_witness, rule_by_name
from baru.axioms import AxiomVerdict, ScenarioRejected
from baru.cli import _profile_first_check, load_profile, main, serialize_profile
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

    monkeypatch.setitem(AXIOM_SPECS, "continuity", AxiomSpec(AXIOM_SPECS["continuity"].draw, check))
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
    blob = serialize_profile(profile, params)
    second = _write(tmp_path, "second.json", blob)
    profile2, params2 = load_profile(second)
    assert serialize_profile(profile2, params2) == blob


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "baru.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout
