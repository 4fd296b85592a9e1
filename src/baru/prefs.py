"""Subjective-expected-utility preferences over interval-valued acts.

An agent is either completely indifferent or carries a pair
(belief, utility): a piecewise-constant density on [0, 1) and a utility
over at least four outcomes, normalised so its minimum is exactly 0 and
its maximum exactly 1.  Acts are finitely many half-open intervals mapped
to outcomes.  Under that normalisation the representing pair of a
non-trivial preference is unique, so preference equality and the uniform
preference metric can both be computed from the pairs directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import lp
from .measure import (
    TOL_EXACT,
    TOL_MEASURE,
    Density,
    EventSet,
    Infeasible,
    measure,
    merged_breakpoints,
    segment_masses,
)


class ZeroFunction(Exception):
    """Raised when an identically-zero function is offered where a
    normalisable one is required (e.g. an all-zero discount function)."""


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite set of outcome labels; at least four keeps mixing
    constructions (two pinned outcomes plus spares) available."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.labels) < 4:
            raise ValueError("need at least four outcomes")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be unique")
        if any(not isinstance(x, str) or not x for x in self.labels):
            raise ValueError("outcome labels must be nonempty strings")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.labels)})

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown outcome {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index


class _LabelledVector:
    """Shared plumbing for label->float maps kept in canonical tuple form."""

    __slots__ = ("items", "_map")

    def __init__(self, items: tuple[tuple[str, float], ...]):
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_map", dict(items))

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def value(self, label: str) -> float:
        try:
            return self._map[label]
        except KeyError:
            raise ValueError(f"unknown outcome {label!r}") from None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.items)

    def as_mapping(self) -> dict[str, float]:
        return dict(self.items)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.items == other.items

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.items))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v:.6g}" for k, v in self.items)
        return f"{type(self).__name__}({{{body}}})"


class Utility(_LabelledVector):
    """Normalised utility: minimum exactly 0, maximum exactly 1."""

    def __init__(self, values: Mapping[str, float]):
        items = tuple(sorted((str(k), float(v)) for k, v in values.items()))
        if not items:
            raise ValueError("utility needs outcomes")
        vals = [v for _, v in items]
        if abs(min(vals)) > TOL_EXACT or abs(max(vals) - 1.0) > TOL_EXACT:
            raise ValueError("utility must be normalised to min 0, max 1")
        super().__init__(items)


class Lottery(_LabelledVector):
    """Probability vector over outcome labels."""

    def __init__(self, probs: Mapping[str, float], space: OutcomeSpace | None = None):
        data = {str(k): float(v) for k, v in probs.items()}
        if space is not None:
            for lab in data:
                if lab not in space:
                    raise ValueError(f"lottery outcome {lab!r} not in space")
            for lab in space.labels:
                data.setdefault(lab, 0.0)
        items = tuple(sorted(data.items()))
        vals = [v for _, v in items]
        if any(v < -TOL_MEASURE for v in vals):
            raise ValueError("lottery probabilities must be nonnegative")
        if abs(fsum(vals) - 1.0) > TOL_MEASURE:
            raise ValueError("lottery probabilities must sum to one")
        super().__init__(items)


def normalize_utility(raw: Mapping[str, float], space: OutcomeSpace) -> Utility | None:
    """Rescale a raw utility to [0, 1]; None stands for the constant
    (completely indifferent) utility.  Positive-affine transformations of
    the input land on the identical normalised object."""
    vals = {}
    for lab in space.labels:
        if lab not in raw:
            raise ValueError(f"utility missing outcome {lab!r}")
        vals[lab] = float(raw[lab])
    if len(raw) != len(space.labels):
        extra = set(raw) - set(space.labels)
        raise ValueError(f"utility has unknown outcomes {sorted(extra)}")
    lo = min(vals.values())
    hi = max(vals.values())
    if hi - lo <= TOL_EXACT:
        return None
    span = hi - lo
    return Utility({k: (v - lo) / span for k, v in vals.items()})


# ---------------------------------------------------------------------------
# acts


@dataclass(frozen=True)
class Act:
    """Assignment of outcomes to finitely many intervals tiling [0, 1)."""

    segments: tuple[tuple[float, float, str], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("act needs at least one segment")
        cursor = 0.0
        for a, b, lab in self.segments:
            if a != cursor or b <= a:
                raise ValueError("act segments must tile [0,1) in order")
            if not isinstance(lab, str):
                raise ValueError("act outcomes must be labels")
            cursor = b
        if cursor != 1.0:
            raise ValueError("act segments must end at 1.0")

    @staticmethod
    def constant(label: str) -> "Act":
        return Act(((0.0, 1.0, label),))

    @staticmethod
    def from_segments(
        pieces: Iterable[tuple[float, float, str]], merge: bool = False
    ) -> "Act":
        segs = sorted((float(a), float(b), str(lab)) for a, b, lab in pieces)
        if merge:
            merged: list[list] = []
            for a, b, lab in segs:
                if merged and merged[-1][2] == lab and merged[-1][1] == a:
                    merged[-1][1] = b
                else:
                    merged.append([a, b, lab])
            segs = [(a, b, lab) for a, b, lab in merged]
        return Act(tuple(segs))

    def outcome_at(self, x: float) -> str:
        for a, b, lab in self.segments:
            if a <= x < b:
                return lab
        raise ValueError(f"{x} outside [0,1)")

    def outcomes_used(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for _, _, lab in self.segments:
            seen.setdefault(lab)
        return tuple(seen)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(a for a, _, _ in self.segments) + (1.0,)

    def as_dict(self) -> list:
        return [[a, b, lab] for a, b, lab in self.segments]

    @staticmethod
    def from_dict(data: Sequence) -> "Act":
        return Act(tuple((float(a), float(b), str(lab)) for a, b, lab in data))


# ---------------------------------------------------------------------------
# preferences and profiles


@dataclass(frozen=True)
class Preference:
    """Either complete indifference (both fields None) or a represented
    preference with a non-constant normalised utility."""

    belief: Density | None
    utility: Utility | None

    def __post_init__(self) -> None:
        if (self.belief is None) != (self.utility is None):
            raise ValueError("belief and utility must be given together")
        if self.belief is not None and not isinstance(self.belief, Density):
            raise ValueError("belief must be a Density")
        if self.utility is not None and not isinstance(self.utility, Utility):
            raise ValueError("utility must be a normalised Utility")

    @property
    def is_indifferent(self) -> bool:
        return self.belief is None

    @staticmethod
    def from_raw(
        belief: Density, raw_utility: Mapping[str, float], space: OutcomeSpace
    ) -> "Preference":
        u = normalize_utility(raw_utility, space)
        if u is None:
            return INDIFFERENT
        return Preference(belief, u)


INDIFFERENT = Preference(None, None)


@dataclass(frozen=True)
class Profile:
    """Society: an outcome space plus one preference per agent (>= 3)."""

    space: OutcomeSpace
    agents: tuple[Preference, ...]

    def __post_init__(self) -> None:
        if len(self.agents) < 3:
            raise ValueError("a profile needs at least three agents")
        want = set(self.space.labels)
        for k, pref in enumerate(self.agents):
            if not isinstance(pref, Preference):
                raise ValueError(f"agent {k} is not a Preference")
            if not pref.is_indifferent and set(pref.utility.labels) != want:
                raise ValueError(f"agent {k} utility is not over the profile's outcomes")

    @property
    def concerned(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.agents) if not p.is_indifferent)

    def replace(self, agent: int, pref: Preference) -> "Profile":
        agents = list(self.agents)
        agents[agent] = pref
        return Profile(self.space, tuple(agents))

    def permuted(self, perm: Sequence[int]) -> "Profile":
        if sorted(perm) != list(range(len(self.agents))):
            raise ValueError("not a permutation of the agents")
        return Profile(self.space, tuple(self.agents[i] for i in perm))

    def swapped(self, i: int, j: int) -> "Profile":
        perm = list(range(len(self.agents)))
        perm[i], perm[j] = perm[j], perm[i]
        return self.permuted(perm)


# ---------------------------------------------------------------------------
# evaluation


def expected_utility(pref: Preference, act: Act) -> float:
    """Expected utility of the act; complete indifference scores 0."""
    if pref.is_indifferent:
        return 0.0
    belief, util = pref.belief, pref.utility
    return fsum(belief.mass(a, b) * util.value(lab) for a, b, lab in act.segments)


def pushforward(act: Act, belief: Density, space: OutcomeSpace) -> Lottery:
    """Outcome distribution the act induces from the belief."""
    acc = {lab: [] for lab in space.labels}
    for a, b, lab in act.segments:
        if lab not in acc:
            raise ValueError(f"act outcome {lab!r} not in space")
        acc[lab].append(belief.mass(a, b))
    return Lottery({lab: fsum(parts) for lab, parts in acc.items()})


@dataclass(frozen=True)
class Comparison:
    """Result of comparing two acts: the raw expected-utility difference
    plus the induced verdict at the TOL_EXACT indifference band."""

    diff: float

    @property
    def verdict(self) -> str:
        if self.diff > TOL_EXACT:
            return "first"
        if self.diff < -TOL_EXACT:
            return "second"
        return "tie"


def compare(pref: Preference, f: Act, g: Act) -> Comparison:
    return Comparison(expected_utility(pref, f) - expected_utility(pref, g))


# ---------------------------------------------------------------------------
# construction of acts with prescribed distributions


def realize_lottery_act(
    beliefs: Sequence[Density], lottery: Mapping[str, float] | Lottery, space: OutcomeSpace
) -> Act:
    """Act whose pushforward equals the lottery under every given belief.

    Allocation fractions per refinement segment and outcome are solved as
    a feasibility LP.  A solution always exists (allocating every segment
    with the lottery's own weights works), so failure here indicates an
    internal solver problem and raises Infeasible.
    """
    if not beliefs:
        raise ValueError("need at least one belief")
    lott = lottery if isinstance(lottery, Lottery) else Lottery(lottery, space)
    labels = space.labels
    X = len(labels)
    bps = merged_breakpoints(beliefs)
    segs = list(zip(bps[:-1], bps[1:]))
    S = len(segs)
    masses = [segment_masses(d, bps) for d in beliefs]

    A = np.zeros((S + len(beliefs) * X, S * X))
    b = np.zeros(S + len(beliefs) * X)
    for s in range(S):
        A[s, s * X : (s + 1) * X] = 1.0
        b[s] = 1.0
    for i in range(len(beliefs)):
        for k, lab in enumerate(labels):
            row = S + i * X + k
            for s in range(S):
                A[row, s * X + k] = masses[i][s]
            b[row] = lott.value(lab)
    x = lp.feasible_point(A, b)
    if x is None:
        raise Infeasible("internal: lottery allocation LP reported infeasible")

    pieces: list[tuple[float, float, str]] = []
    for s, (a, bnd) in enumerate(segs):
        width = bnd - a
        running = a
        local: list[list] = []
        for k, lab in enumerate(labels):
            lam = x[s * X + k]
            if lam > 1e-12:
                w = lam * width
                local.append([running, running + w, lab])
                running += w
        if not local:
            local.append([a, bnd, labels[0]])
        local[-1][1] = bnd  # absorb rounding drift at the segment edge
        pieces.extend((p[0], p[1], p[2]) for p in local)
    return Act.from_segments(pieces, merge=True)


def _cut_at_mass(density: Density, a: float, b: float, target: float) -> float:
    """Leftmost c in [a, b] with density-mass of [a, c) equal to target."""
    inner = [p for p in density.breakpoints if a < p < b]
    edges = [a] + inner + [b]
    acc = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v = density.value_at(lo)
        m = v * (hi - lo)
        if acc + m >= target - 1e-15:
            if v <= 0.0:
                return lo
            return min(lo + (target - acc) / v, hi)
        acc += m
    return b


def simple_reduction(profile: Profile, act: Act) -> Act:
    """Act with the same expected utility for every agent but whose range
    holds at most two outcomes per distinct utility vector of the
    non-focal agents.

    Outcomes are grouped by the value vector the other agents attach to
    them; inside a group those agents cannot distinguish anything, so the
    group's stretch of the act is replaced by a two-outcome mix calibrated
    to the focal agent's conditional mean.
    """
    concerned = profile.concerned
    if not concerned:
        raise ValueError("simple_reduction needs a represented agent")
    focal = concerned[0]
    fp = profile.agents[focal]
    others = [p for j, p in enumerate(profile.agents) if j != focal and not p.is_indifferent]

    groups: dict[tuple, list[tuple[float, float, str]]] = {}
    for seg in act.segments:
        key = tuple(p.utility.value(seg[2]) for p in others)
        groups.setdefault(key, []).append(seg)

    pieces: list[tuple[float, float, str]] = []
    for segs in groups.values():
        labels = []
        for s in segs:
            if s[2] not in labels:
                labels.append(s[2])
        if len(labels) == 1:
            pieces.extend(segs)
            continue
        mass = fsum(fp.belief.mass(a, b) for a, b, _ in segs)
        if mass <= TOL_EXACT:
            # The focal agent puts no weight here; any single outcome of
            # the group preserves everyone's expectations.
            pieces.extend((a, b, labels[0]) for a, b, _ in segs)
            continue
        cmean = (
            fsum(fp.belief.mass(a, b) * fp.utility.value(lab) for a, b, lab in segs)
            / mass
        )
        hi_lab = max(labels, key=fp.utility.value)
        lo_lab = min(labels, key=fp.utility.value)
        hi, lo = fp.utility.value(hi_lab), fp.utility.value(lo_lab)
        if hi - lo <= TOL_EXACT:
            pieces.extend((a, b, hi_lab) for a, b, _ in segs)
            continue
        alpha = min(max((cmean - lo) / (hi - lo), 0.0), 1.0)
        target = alpha * mass
        acc = 0.0
        done = False
        for a, b, _ in segs:
            if done:
                pieces.append((a, b, lo_lab))
                continue
            m = fp.belief.mass(a, b)
            if acc + m <= target + 1e-15:
                pieces.append((a, b, hi_lab))
                acc += m
            else:
                cut = _cut_at_mass(fp.belief, a, b, target - acc)
                if cut > a:
                    pieces.append((a, cut, hi_lab))
                if cut < b:
                    pieces.append((cut, b, lo_lab))
                done = True
    return Act.from_segments(pieces, merge=True)


# ---------------------------------------------------------------------------
# the uniform preference metric


def preference_distance(p: Preference, q: Preference) -> float:
    """Supremum over acts of the expected-utility gap between two
    preferences, computed exactly by a per-segment bang-bang choice.

    A represented preference sits at distance 1 from complete indifference
    by convention (the functionals live on different scales; callers that
    care can treat that value as an out-of-metric flag).
    """
    if p.is_indifferent and q.is_indifferent:
        return 0.0
    if p.is_indifferent or q.is_indifferent:
        return 1.0
    labels = p.utility.labels
    if set(labels) != set(q.utility.labels):
        raise ValueError("preferences range over different outcomes")
    bps = merged_breakpoints((p.belief, q.belief))
    mp = segment_masses(p.belief, bps)
    mq = segment_masses(q.belief, bps)
    up = [p.utility.value(lab) for lab in labels]
    uq = [q.utility.value(lab) for lab in labels]
    best = 0.0
    for sign in (1.0, -1.0):
        total = fsum(
            max(sign * (mp[s] * up[k] - mq[s] * uq[k]) for k in range(len(labels)))
            for s in range(len(mp))
        )
        best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# discounting adapter


def discount_to_belief(breakpoints: Sequence[float], values: Sequence[float]) -> Density:
    """Treat a nonnegative piecewise-constant discount function as an
    unnormalised belief over time and scale it to integrate to one."""
    bp = tuple(float(x) for x in breakpoints)
    vals = tuple(float(v) for v in values)
    if any(v < 0.0 for v in vals):
        raise ValueError("discount values must be nonnegative")
    total = fsum(v * (bp[i + 1] - bp[i]) for i, v in enumerate(vals))
    if total <= TOL_EXACT:
        raise ZeroFunction("discount function is identically zero")
    return Density(bp, tuple(v / total for v in vals))
