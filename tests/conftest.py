import ast
import builtins
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from baru import (
    Act,
    Density,
    INDIFFERENT,
    Lottery,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
)
from baru import axioms, harness

SRC = Path(__file__).resolve().parents[1] / "src" / "baru"


@pytest.fixture
def table1():
    """Two concerned agents with mirrored beliefs plus a bystander; the
    fork act f and the hedge act g."""
    space = OutcomeSpace(("a", "b", "c", "d"))
    p1 = Preference(
        Density.from_state_probs((0.9, 0.1)),
        Utility({"a": 1.0, "b": 0.0, "c": 0.9, "d": 0.0}),
    )
    p2 = Preference(
        Density.from_state_probs((0.1, 0.9)),
        Utility({"a": 0.0, "b": 1.0, "c": 0.8, "d": 0.0}),
    )
    profile = Profile(space, (p1, p2, INDIFFERENT))
    f = Act.from_segments(((0.0, 0.5, "a"), (0.5, 1.0, "b")))
    g = Act.from_segments(((0.0, 1.0, "c"),))
    return profile, f, g


@pytest.fixture
def rng():
    return random.Random(987123)


@pytest.fixture
def forbid_float_sum(monkeypatch):
    """Call to make the builtin sum raise on floats for the rest of the
    test.  It compensates from Python 3.12 on, so a float sum would make
    the bits it reaches depend on the interpreter."""
    real_sum = builtins.sum

    def guarded(items, start=0):
        items = list(items)
        if isinstance(start, float) or any(isinstance(v, float) for v in items):
            raise AssertionError("builtin sum over floats")
        return real_sum(items, start)

    return lambda: monkeypatch.setattr(builtins, "sum", guarded)


@pytest.fixture
def thin_gap():
    """Two uniform-belief agents whose outcome d sits 1e-5 outside the
    edge from b to c, along that edge's unit normal n: dropping d shrinks
    the image only inside a cone of about 2e-5 rad around n."""
    space = OutcomeSpace(("a", "b", "c", "d"))
    delta = 1e-5
    norm = (0.8**2 + 0.7**2) ** 0.5
    n = (0.8 / norm, 0.7 / norm)
    uniform = Density((0.0, 1.0), (1.0,))
    u1 = Utility({"a": 0.0, "b": 1.0, "c": 0.3, "d": 0.65 + delta * n[0]})
    u2 = Utility({"a": 0.0, "b": 0.2, "c": 1.0, "d": 0.6 + delta * n[1]})
    profile = Profile(space, (Preference(uniform, u1), Preference(uniform, u2), INDIFFERENT))
    return profile, n, delta


@pytest.fixture
def thin_gap_three():
    """Three uniform-belief agents whose outcome d sits 0.01 beyond the
    centroid of b, c and e along the outward unit normal of their facet
    of the hull of a, b, c and e: dropping d shrinks the image only near
    that normal."""
    space = OutcomeSpace(("a", "b", "c", "d", "e"))
    points = {"a": (0.0, 0.0, 0.0), "b": (1.0, 0.2, 0.3), "c": (0.3, 1.0, 0.2), "e": (0.2, 0.3, 1.0)}
    b, c, e = points["b"], points["c"], points["e"]
    u = [y - x for x, y in zip(b, c)]
    v = [y - x for x, y in zip(b, e)]
    cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    norm = (cross[0] ** 2 + cross[1] ** 2 + cross[2] ** 2) ** 0.5
    n = tuple(x / norm for x in cross)  # points away from a, the origin
    points["d"] = tuple((x + y + z) / 3.0 + 0.01 * w for x, y, z, w in zip(b, c, e, n))
    uniform = Density((0.0, 1.0), (1.0,))
    agents = tuple(
        Preference(uniform, Utility({lab: p[i] for lab, p in points.items()})) for i in range(3)
    )
    return Profile(space, agents), points["d"]


@pytest.fixture
def thin_pair():
    """Two uniform-belief agents whose outcome c makes a thin turn: the
    hull's turn v -> c -> a has a cross product of 5e-15, below 1e-14, but
    a sine of 0.02.  c lies 4.5e-7 outside the hull of o, p, a and v, and
    it is the image's Nash point."""
    space = OutcomeSpace(("o", "p", "a", "c", "v"))
    uniform = Density((0.0, 1.0), (1.0,))
    points = {
        "o": (0.0, 0.0),
        "p": (0.0, 1.0),
        "a": (1.0 - 5e-9, 0.5),
        "c": (1.0 - 5e-9, 0.5 + 1e-6),
        "v": (1.0, 0.5 + 5e-7),
    }
    u1 = Utility({lab: x for lab, (x, _) in points.items()})
    u2 = Utility({lab: y for lab, (_, y) in points.items()})
    profile = Profile(space, (Preference(uniform, u1), Preference(uniform, u2), INDIFFERENT))
    return profile, points


@pytest.fixture
def utility_near_one():
    """A profile whose agent 0 has a uniform belief and a utility 9e-13
    past 1 at b, inside TOL_EXACT: its square is 1.8e-12 past 1, so a mix
    of the two can fail the Utility constructor's check."""
    space = OutcomeSpace(("a", "b", "c", "d"))
    u0 = Utility({"a": 0.0, "b": 1.0000000000009, "c": 0.0, "d": 1.0})
    u1 = Utility({"a": 0.0, "b": 1.0, "c": 0.8, "d": 0.0})
    p1 = Preference(Density((0.0, 0.5, 1.0), (0.2, 1.8)), u1)
    return Profile(space, (Preference(Density.uniform(), u0), p1, INDIFFERENT))


@pytest.fixture
def edge_profile():
    """A profile file's contents: two agents with different utilities whose
    beliefs, on different grids, each integrate to 1 + 0.9999999 *
    TOL_MEASURE.  Rounding puts their mean's mass on the merged grid just
    past 1 + TOL_MEASURE."""
    return {
        "outcomes": ["a", "b", "c", "d"],
        "agents": [
            {
                "belief": {
                    "breakpoints": [0.0, 0.1875, 0.625, 1.0],
                    "values": [2.583544526967184, 0.7574132159689841, 0.4912456538859264],
                },
                "utility": {"a": 1.0, "b": 0.0, "c": 0.9, "d": 0.0},
            },
            {
                "belief": {
                    "breakpoints": [0.0, 0.4375, 1.0],
                    "values": [1.048601794332733, 0.9621986061856518],
                },
                "utility": {"a": 0.0, "b": 1.0, "c": 0.8, "d": 0.0},
            },
            {"belief": None, "utility": None},
        ],
    }


def _unchecked_references(tree: ast.AST, module: str) -> set[tuple[str, str, str]]:
    """(module, enclosing function, builder) for each use of an unchecked
    builder in the tree: `X._derived` for a class X, or `_exact_utility`."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == "_derived":
            owner = node.value.id if isinstance(node.value, ast.Name) else ast.unparse(node.value)
            found.add((module, ".".join(scope), f"{owner}._derived"))
        elif isinstance(node, ast.Name) and node.id == "_exact_utility":
            found.add((module, ".".join(scope), "_exact_utility"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.fixture(scope="session")
def unchecked_references():
    """Every use of an unchecked builder in the package's source, as
    (module, enclosing function, builder)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _unchecked_references(ast.parse(path.read_text()), path.stem)
    return found


def _same_hex(xs, ys) -> bool:
    return list(map(float.hex, xs)) == list(map(float.hex, ys))


@pytest.fixture
def checked_twins(monkeypatch):
    """Make every unchecked builder also build its object by the checked
    constructor from the same parts, and fail unless the two agree in
    `==` and `hash` (and a density's `_cum` by `float.hex`, a profile's
    concerned agents), and in `repr` at each site's first 100 builds:
    `repr` reads only fields that `==` compares, and reading it on every
    build would triple the time.  `_exact_utility` is compared at the
    battery draws and the continuity probe that use it, not in the rules'
    normalization.  Returns a Counter of (builder, calling function)."""
    calls: Counter = Counter()
    real_density, real_lottery = Density._derived, Lottery._derived
    real_profile, real_utility = Profile._derived, harness._exact_utility

    def agree(builder: str, got, want):
        site = builder, sys._getframe(2).f_code.co_name
        assert got == want and hash(got) == hash(want)
        if calls[site] < 100:
            assert repr(got) == repr(want)
        calls[site] += 1
        return got

    def density(bps, values):
        got, want = real_density(bps, values), Density(bps, values)
        assert _same_hex(got._cum, want._cum)
        return agree("Density._derived", got, want)

    def lottery(probs):
        return agree("Lottery._derived", real_lottery(probs), Lottery(probs))

    def profile(space, agents):
        agents = tuple(agents)
        got, want = real_profile(space, agents), Profile(space, agents)
        assert got.concerned == want.concerned
        return agree("Profile._derived", got, want)

    def utility(data):
        return agree("_exact_utility", real_utility(data), Utility(data))

    monkeypatch.setattr(Density, "_derived", staticmethod(density))
    monkeypatch.setattr(Lottery, "_derived", staticmethod(lottery))
    monkeypatch.setattr(Profile, "_derived", staticmethod(profile))
    monkeypatch.setattr(harness, "_exact_utility", utility)
    monkeypatch.setattr(axioms, "_exact_utility", utility)
    return calls
