import builtins
import random

import pytest

from baru import (
    Act,
    Density,
    INDIFFERENT,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
)


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
