"""Command-line surface: file ingestion, aggregation, axiom reports,
worked scenarios, polytope figures, preference distance.

Exit codes: 0 ok, 1 at least one axiom violated (CI gating), 2 input
error.  Validation failures print one JSON diagnostic per line on
stderr.  Reports embed the seed (when randomness is involved) and the
tool version.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from math import inf
from typing import Callable, Mapping, Sequence

from . import __version__
from .axioms import AxiomVerdict, ScenarioRejected, Swf
from .geometry import ImagePolytope, image_polytope
from .harness import (
    AXIOM_SPECS,
    MATRIX_AXIOMS,
    DecodeError,
    preference_as_dict,
    preference_from_dict,
    profile_from_dict,
    run_axiom_battery,
    child_seed,
    violation_witness,
)
from .measure import (
    Coarsening,
    Density,
    ImproperPushforward,
    pushforward_coarsening,
    segment_masses,
)
from .prefs import Act, OutcomeSpace, Preference, Profile, preference_distance
from .swf import (
    RULE_NAMES,
    WeightedAggregation,
    rule_by_name,
    swf2,
    swf3,
    swf5,
    weighted,
)
from . import scenarios


class CliError(Exception):
    """Input or validation failure; carries line-level diagnostics."""

    def __init__(self, *diagnostics: dict):
        self.diagnostics = diagnostics
        super().__init__(diagnostics[0].get("error", "input error") if diagnostics else "input error")


def _fail(error: str, **detail) -> CliError:
    return CliError({"error": error, **detail})


# ---------------------------------------------------------------------------
# ingestion


def _load_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _fail("cannot read file", file=path, detail=str(exc))
    except json.JSONDecodeError as exc:
        raise _fail("invalid JSON", file=path, line=exc.lineno, detail=exc.msg)


@contextmanager
def _decoding(error: str, **where):
    """The one boundary between an input's contents and their decoders: a
    KeyError, TypeError or ValueError raised inside becomes the input's
    exit-2 diagnostic `error`.  A `DecodeError` names its own error and
    location.  Only decoding belongs inside, so that a fault in the library
    still shows as a traceback."""
    try:
        yield
    except DecodeError as exc:
        detail = {"detail": exc.detail} if exc.detail else {}
        raise _fail(exc.error, **where, **exc.where, **detail) from None
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(error, **where, detail=str(exc)) from None


def load_profile(path: str) -> tuple[Profile, dict]:
    """Parse a profile file; returns the profile and its params section."""
    data = _load_json(path)
    if not isinstance(data, dict) or "outcomes" not in data or "agents" not in data:
        raise _fail("profile file needs 'outcomes' and 'agents'", file=path)
    with _decoding("invalid profile", file=path):
        profile = profile_from_dict(data)
    params = data.get("params") or {}
    if not isinstance(params, Mapping):
        raise _fail("params must be an object", file=path)
    return profile, dict(params)


def _with_params_file(params: dict, path: str | None) -> dict:
    """The profile's params section, updated by a --params file."""
    if path:
        override = _load_json(path)
        if not isinstance(override, Mapping):
            raise _fail("params file must be a JSON object", file=path)
        params.update(override)
    return params


def load_acts(path: str, space: OutcomeSpace) -> dict[str, Act]:
    data = _load_json(path)
    if not isinstance(data, dict) or "acts" not in data or not isinstance(data["acts"], Mapping):
        raise _fail("act file needs an 'acts' object of name -> segments", file=path)
    acts: dict[str, Act] = {}
    for name, segs in data["acts"].items():
        with _decoding("invalid act", file=path, act=str(name)):
            act = Act.from_dict(segs)
        for _, _, lab in act.segments:
            if lab not in space:
                raise _fail("act uses unknown outcome", file=path, act=str(name), outcome=lab)
        acts[str(name)] = act
    if not acts:
        raise _fail("act file is empty", file=path)
    return acts


def _parse_params_pref(params: Mapping, key: str, path_hint: str) -> Preference | None:
    entry = params.get(key)
    if entry is None:
        return None
    with _decoding(f"invalid params.{key}", file=path_hint):
        pref = preference_from_dict(entry)
    if pref.is_indifferent:
        raise _fail(f"params.{key} must be a represented preference", file=path_hint)
    return pref


def build_rule(name: str, params: Mapping, path_hint: str) -> Swf:
    """Rule callable from a name plus the profile file's params section."""
    if name in ("swf2", "swf3"):
        key, rule = ("anchor", swf2) if name == "swf2" else ("phantom", swf3)
        custom = _parse_params_pref(params, key, path_hint)
        if custom is not None:
            # a custom anchor applies only on its own outcome space; random
            # battery profiles range over other spaces and get the named rule
            labels, named = set(custom.utility.labels), rule_by_name(name)
            return lambda pr: rule(pr, custom) if set(pr.space.labels) == labels else named(pr)
    if name == "swf5" and params.get("alpha") is not None:
        with _decoding("params.alpha must be positive finite numbers", file=path_hint):
            alphas = tuple(map(float, params["alpha"]))
        # json reads NaN and Infinity, which no comparison with 0.0 rejects
        if not alphas or not all(0.0 < a < inf for a in alphas):
            raise _fail("params.alpha must be positive finite numbers", file=path_hint)

        def alpha(m: int) -> float:
            if m > len(alphas):
                raise _fail("params.alpha is shorter than a preference group", file=path_hint)
            return alphas[m - 1]

        return lambda pr: swf5(pr, alpha)
    if name == "weighted":
        spec = params.get("weights")
        if not isinstance(spec, Mapping) or "belief" not in spec or "utility" not in spec:
            raise _fail("--swf weighted needs params.weights.belief and .utility", file=path_hint)
        with _decoding("invalid weights", file=path_hint):
            bw = tuple(map(float, spec["belief"]))
            uw = tuple(map(float, spec["utility"]))
            WeightedAggregation(bw, uw)

        def fit(ws: tuple[float, ...], n: int) -> tuple[float, ...]:
            # agents past the listed weights count at the neutral weight
            return (ws + (1.0,) * n)[:n]

        return lambda pr: weighted(
            pr, WeightedAggregation(fit(bw, len(pr.agents)), fit(uw, len(pr.agents)))
        )
    if name in RULE_NAMES:
        return rule_by_name(name)
    raise _fail("unknown rule", rule=name)


# ---------------------------------------------------------------------------
# figure emission


def _svg_map(points: Sequence[tuple[float, float]]) -> Callable[[float, float], tuple[float, float]]:
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    lo_x, hi_x = min(0.0, *xs), max(1.0, *xs)
    lo_y, hi_y = min(0.0, *ys), max(1.0, *ys)
    pad_x = 0.08 * (hi_x - lo_x or 1.0)
    pad_y = 0.08 * (hi_y - lo_y or 1.0)
    lo_x, hi_x = lo_x - pad_x, hi_x + pad_x
    lo_y, hi_y = lo_y - pad_y, hi_y + pad_y
    size, margin = 420.0, 50.0

    def to_screen(x: float, y: float) -> tuple[float, float]:
        sx = margin + (x - lo_x) / (hi_x - lo_x) * size
        sy = margin + (hi_y - y) / (hi_y - lo_y) * size
        return sx, sy

    return to_screen


def render_svg(
    full: Sequence[tuple[float, ...]],
    restricted: Sequence[tuple[float, ...]] | None = None,
) -> str:
    """Polytope figure: expected-utility axes, full polygon, optional
    dashed restricted overlay.  One-agent images render as a segment."""
    pts = [(p[0], p[1] if len(p) > 1 else 0.0) for p in full]
    over = None
    if restricted is not None:
        over = [(p[0], p[1] if len(p) > 1 else 0.0) for p in restricted]
    to_screen = _svg_map(pts + (over or []))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="520" height="520" viewBox="0 0 520 520">',
        '<rect width="520" height="520" fill="white"/>',
    ]
    ox, oy = to_screen(0.0, 0.0)
    parts.append(f'<line x1="{ox:.1f}" y1="{oy:.1f}" x2="495" y2="{oy:.1f}" stroke="#444" stroke-width="1"/>')
    parts.append(f'<line x1="{ox:.1f}" y1="{oy:.1f}" x2="{ox:.1f}" y2="25" stroke="#444" stroke-width="1"/>')
    parts.append(f'<text x="470" y="{oy + 20:.1f}" font-size="14" font-family="sans-serif">EV₁</text>')
    parts.append(f'<text x="{ox - 38:.1f}" y="36" font-size="14" font-family="sans-serif">EV₂</text>')

    def poly(points: Sequence[tuple[float, float]], style: str) -> str:
        if len(points) == 1:
            x, y = to_screen(*points[0])
            return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" {style}/>'
        coords = " ".join("{:.2f},{:.2f}".format(*to_screen(x, y)) for x, y in points)
        if len(points) == 2:
            return f'<polyline points="{coords}" fill="none" {style}/>'
        return f'<polygon points="{coords}" fill="none" {style}/>'

    parts.append(poly(pts, 'stroke="black" stroke-width="1.6"'))
    if over:
        parts.append(poly(over, 'stroke="crimson" stroke-width="1.6" stroke-dasharray="7 5"'))
    parts.append("</svg>")
    return "\n".join(parts)


def polytope_csv(full: ImagePolytope, restricted: ImagePolytope | None = None) -> str:
    """Vertex and support rows, one polytope set per block, with columns
    x1 to xk for k the larger of 3 and the image's dimension."""
    k = max(3, full.dimension)
    rows = ["set,kind," + ",".join(f"x{j}" for j in range(1, k + 1)) + ",value"]

    def block(tag: str, poly: ImagePolytope) -> None:
        pad = [""] * (k - poly.dimension)
        for v in poly.vertices or ():
            rows.append(",".join([tag, "vertex", *map(str, v), *pad, ""]))
        for d, h in zip(poly.directions, poly.support):
            rows.append(",".join([tag, "support", *map(str, d), *pad, repr(h)]))

    block("full", full)
    if restricted is not None:
        block("restricted", restricted)
    return "\n".join(rows) + "\n"


def _write(path: str, content: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as exc:
        raise _fail("cannot write file", file=path, detail=str(exc))


# ---------------------------------------------------------------------------
# commands


def _belief_masses(d: Density) -> dict:
    """The society belief as [a, b, mass] per segment, and as a summary."""
    bps = d.breakpoints
    segments = [[a, b, m] for a, b, m in zip(bps, bps[1:], segment_masses(d, bps))]
    return {
        "belief_segment_masses": segments,
        "belief_summary": "/".join(format(m, "g") for _, _, m in segments),
    }


def _ranking(result, acts: Mapping[str, Act]) -> str:
    order = sorted(acts, key=lambda name: -result.ev(acts[name]))
    parts = [order[0]]
    for prev, cur in zip(order, order[1:]):
        sep = " ∼ " if result.compare(acts[prev], acts[cur]).verdict == "tie" else " ≻ "
        parts.append(sep + cur)
    return "".join(parts)


def cmd_aggregate(args) -> int:
    profile, params = load_profile(args.profile)
    rule = build_rule(args.swf, _with_params_file(params, args.params), args.profile)
    result = rule(profile)
    if args.acts:
        acts = load_acts(args.acts, profile.space)
    else:
        acts = {lab: Act.constant(lab) for lab in profile.space.labels}
    report: dict = {"version": __version__, "rule": args.swf, "concerned": list(result.concerned)}
    if result.preference.is_indifferent:
        report["society"] = "complete indifference"
        if result.belief is not None:
            report["belief"] = result.belief.as_dict()
            report.update(_belief_masses(result.belief))
    else:
        report["society"] = preference_as_dict(result.preference)
        report.update(_belief_masses(result.belief))
        report["raw_utility"] = {lab: v for lab, v in result.raw_utility}
        report["belief_weights"] = [[i, w] for i, w in result.belief_weights]
        report["utility_weights"] = [[i, w] for i, w in result.utility_weights]
        report["expected_values"] = {name: result.ev(act) for name, act in acts.items()}
        report["ranking"] = _ranking(result, acts)
    print(json.dumps(report, indent=2, ensure_ascii=False))
    return 0


def cmd_axiom_report(args) -> int:
    if args.trials < 1:
        raise _fail("--trials must be at least 1", trials=args.trials)
    profile, params = load_profile(args.profile) if args.profile else (None, {})
    rule = build_rule(args.swf, _with_params_file(params, args.params), args.profile or "<defaults>")
    axioms = list(MATRIX_AXIOMS) + (["restricted-pareto"] if args.pareto else [])
    report: dict = {
        "version": __version__,
        "seed": args.seed,
        "rule": args.swf,
        "trials": args.trials,
        "axioms": {},
    }
    any_violated = False
    for axiom in axioms:
        verdict = _profile_first_check(rule, axiom, profile)
        if verdict is None or verdict.satisfied:
            verdict = run_axiom_battery(
                rule, axiom, args.trials, child_seed(args.seed, f"{args.swf}:{axiom}", 0)
            )
        report["axioms"][axiom] = verdict.as_dict()
        any_violated = any_violated or not verdict.satisfied
    print(json.dumps(report, indent=2))
    if args.out:
        _write(args.out, json.dumps(report, indent=2) + "\n")
    for axiom in axioms:
        v = report["axioms"][axiom]
        line = f"{axiom:30s} {v['verdict']:20s} trials={v['trials']}"
        print(line, file=sys.stderr)
    return 1 if any_violated else 0


def _profile_first_check(rule: Swf, axiom: str, profile: Profile | None) -> AxiomVerdict | None:
    """Run the supplied profile itself as scenario zero where the axiom's
    spec builds scenarios from a bare profile; battery scenarios follow.
    A violation carries a battery witness, so `rerun_witness` replays it."""
    spec = AXIOM_SPECS[axiom]
    if profile is None or spec.zero is None:
        return None
    for scenario in spec.zero(profile):
        try:
            v = spec.check(rule, scenario)
        except ScenarioRejected:
            continue
        if not v.satisfied:
            witness = violation_witness(axiom, None, None, scenario, v.witness)
            return AxiomVerdict(axiom, False, v.trials, witness, v.notes)
    return None


def cmd_scenario(args) -> int:
    sc = scenarios.SCENARIOS[args.name]()
    report = {"version": __version__, "scenario": args.name, **sc.as_dict()}
    if args.name == "fig1":
        paths = {"svg": args.svg or "fig1.svg", "csv": args.csv or "fig1.csv"}
        report.update(_figures(sc.profile, (sc.coarsening, sc.outcomes), paths))
    print(json.dumps(report, indent=2))
    return 0


def _parse_restrict(spec: str, profile: Profile) -> tuple[Coarsening, tuple[str, ...] | None]:
    head, _, rest = spec.partition(",")
    if head:
        data = _load_json(head)
        if not isinstance(data, Mapping) or "pieces" not in data:
            raise _fail("coarsening file needs a 'pieces' list", file=head)
        with _decoding("invalid coarsening", file=head):
            q = Coarsening.from_dict(data)
        for i in profile.concerned:
            try:
                pushforward_coarsening(q, profile.agents[i].belief)
            except ImproperPushforward as exc:
                detail = {"file": head, "agent": i, "detail": str(exc)}
                raise _fail("coarsening has no proper pushforward", **detail)
    else:
        q = Coarsening.identity()
    labels: tuple[str, ...] | None = None
    if rest:
        labels = tuple(x.strip() for x in rest.split(",") if x.strip())
        if not labels:
            raise _fail("restriction needs at least one outcome", restrict=spec)
        for lab in labels:
            if lab not in profile.space:
                raise _fail("restriction uses unknown outcome", outcome=lab)
    return q, labels


def _figures(profile: Profile, restriction: tuple | None, paths: Mapping[str, str | None]) -> dict:
    """The vertices of the profile's image and, unless `restriction` (a
    coarsening and outcome labels, as `image_polytope` takes it) is None,
    of its restriction; then the SVG and CSV figures of both, each
    written to its path in `paths` (in that order, a None path skipped)
    and reported under its key.  An SVG is refused above two agents before
    any file is written."""
    full = image_polytope(profile)
    restricted = None if restriction is None else image_polytope(profile, restriction)
    if paths.get("svg") and full.dimension > 2:
        raise _fail("SVG rendering needs a 1- or 2-agent image", dimension=full.dimension)

    def listed(poly: ImagePolytope) -> list | None:
        return None if poly.vertices is None else [list(v) for v in poly.vertices]

    report = {"vertices": listed(full)}
    if restricted is not None:
        report["restricted_vertices"] = listed(restricted)
    over = None if restricted is None else restricted.vertices or ()
    figures = {
        "svg": lambda: render_svg(full.vertices or (), over),
        "csv": lambda: polytope_csv(full, restricted),
    }
    for kind, path in paths.items():
        if path:
            _write(path, figures[kind]())
            report[kind] = path
    return report


def cmd_image(args) -> int:
    profile, _ = load_profile(args.profile)
    if not profile.concerned:
        raise _fail("image needs at least one concerned agent", file=args.profile)
    restriction = _parse_restrict(args.restrict, profile) if args.restrict else None
    report: dict = {
        "version": __version__,
        "agents": list(profile.concerned),
        "dimension": len(profile.concerned),
    }
    report.update(_figures(profile, restriction, {"csv": args.csv, "svg": args.svg}))
    print(json.dumps(report, indent=2))
    return 0


def _load_single_preference(path: str, agent: int | None) -> Preference:
    data = _load_json(path)
    if isinstance(data, Mapping) and "agents" in data:
        profile, _ = load_profile(path)
        if agent is None:
            raise _fail("profile file given; select an agent with --agent-a/--agent-b", file=path)
        if not 0 <= agent < len(profile.agents):
            raise _fail("agent index out of range", file=path, agent=agent)
        return profile.agents[agent]
    with _decoding("invalid preference", file=path):
        return preference_from_dict(data)


def cmd_distance(args) -> int:
    p = _load_single_preference(args.pref_a, args.agent_a)
    q = _load_single_preference(args.pref_b, args.agent_b)
    if not p.is_indifferent and not q.is_indifferent:
        if set(p.utility.labels) != set(q.utility.labels):
            raise _fail("preferences range over different outcomes")
    d = preference_distance(p, q)
    out_of_metric = p.is_indifferent != q.is_indifferent
    print(json.dumps({"version": __version__, "distance": d, "out_of_metric": out_of_metric}))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baru",
        description="Aggregate subjective-expected-utility preferences and check the axioms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rules = (*RULE_NAMES, "weighted")

    p_agg = sub.add_parser("aggregate", help="aggregate a profile into a society preference")
    p_agg.add_argument("profile", help="profile JSON file")
    p_agg.add_argument("--swf", default="baru", choices=rules)
    p_agg.add_argument("--params", help="JSON file overriding the profile's params section")
    p_agg.add_argument("--acts", help="act file; default ranks the constant acts")
    p_agg.set_defaults(func=cmd_aggregate)

    p_rep = sub.add_parser("axiom-report", help="run the axiom batteries against one rule")
    p_rep.add_argument("profile", nargs="?", help="optional profile JSON file (params + scenario zero)")
    p_rep.add_argument("--swf", default="baru", choices=rules)
    p_rep.add_argument("--params", help="JSON file overriding the profile's params section")
    p_rep.add_argument("--trials", type=int, default=500)
    p_rep.add_argument("--seed", type=int, default=20240801)
    p_rep.add_argument("--pareto", action="store_true", help="also run the restricted-Pareto battery")
    p_rep.add_argument("--out", help="write the JSON report to this file as well")
    p_rep.set_defaults(func=cmd_axiom_report)

    p_sc = sub.add_parser("scenario", help="reproduce a worked scenario")
    p_sc.add_argument("name", choices=tuple(scenarios.SCENARIOS))
    p_sc.add_argument("--svg", help="fig1: SVG output path (default fig1.svg)")
    p_sc.add_argument("--csv", help="fig1: CSV output path (default fig1.csv)")
    p_sc.set_defaults(func=cmd_scenario)

    p_img = sub.add_parser("image", help="image polytope of a profile")
    p_img.add_argument("profile", help="profile JSON file")
    p_img.add_argument("--restrict", help="QFILE[,LABEL,...]; empty QFILE means the identity coarsening")
    p_img.add_argument("--svg", help="SVG output path (1- or 2-agent images)")
    p_img.add_argument("--csv", help="CSV output path (vertices + support rows)")
    p_img.set_defaults(func=cmd_image)

    p_dist = sub.add_parser("distance", help="uniform preference distance between two preferences")
    p_dist.add_argument("pref_a", help="preference or profile JSON file")
    p_dist.add_argument("pref_b", help="preference or profile JSON file")
    p_dist.add_argument("--agent-a", type=int, help="agent index when pref_a is a profile file")
    p_dist.add_argument("--agent-b", type=int, help="agent index when pref_b is a profile file")
    p_dist.set_defaults(func=cmd_distance)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        for diag in exc.diagnostics:
            print(json.dumps(diag), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
