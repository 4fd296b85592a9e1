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
from math import fsum, isfinite
from operator import sub
from typing import Callable, Iterable, Mapping, Sequence

from . import lp
from .measure import (
    _FRACTION_FLOOR,
    TOL_EXACT,
    TOL_MEASURE,
    Density,
    Infeasible,
    cell_values,
    common_grid,
    interval_masses,
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

    def subset(self, labels: Iterable[str]) -> tuple[str, ...]:
        """The labels as a tuple, refused with ValueError when empty or
        when one is not an outcome of the space."""
        labs = tuple(labels)
        if not labs:
            raise ValueError("outcome subset must be non-empty")
        for lab in labs:
            self.index(lab)
        return labs


class _LabelledVector:
    """Shared plumbing for label->float maps kept in canonical tuple form:
    `items` sorted by label, `labels` in the same order."""

    __slots__ = ("items", "labels", "_map")

    def __init__(self, data: dict[str, float]):
        items = tuple(sorted(data.items()))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_map", dict(items))
        object.__setattr__(self, "labels", tuple(self._map))

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def value(self, label: str) -> float:
        try:
            return self._map[label]
        except KeyError:
            raise ValueError(f"unknown outcome {label!r}") from None

    def values_of(self, labels: Sequence[str]) -> list[float]:
        """`value` of each label, in the given order."""
        try:
            return list(map(self._map.__getitem__, labels))
        except KeyError as exc:
            raise ValueError(f"unknown outcome {exc.args[0]!r}") from None

    def as_mapping(self) -> dict[str, float]:
        return dict(self.items)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.items == other.items

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.items))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v!r}" for k, v in self.items)
        return f"{type(self).__name__}({{{body}}})"


class Utility(_LabelledVector):
    """Normalised utility: minimum exactly 0, maximum exactly 1."""

    def __init__(self, values: Mapping[str, float]):
        data = {str(k): float(v) for k, v in values.items()}
        if not data:
            raise ValueError("utility needs outcomes")
        vals = data.values()
        if not all(map(isfinite, vals)):
            raise ValueError("utility values must be finite")
        if abs(min(vals)) > TOL_EXACT or abs(max(vals) - 1.0) > TOL_EXACT:
            raise ValueError("utility must be normalised to min 0, max 1")
        super().__init__(data)


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
        vals = data.values()
        if not all(map(isfinite, vals)):
            raise ValueError("lottery probabilities must be finite")
        if min(vals, default=0.0) < -TOL_MEASURE:
            raise ValueError("lottery probabilities must be nonnegative")
        if abs(fsum(vals) - 1.0) > TOL_MEASURE:
            raise ValueError("lottery probabilities must sum to one")
        super().__init__(data)

    @staticmethod
    def _derived(probs: dict[str, float]) -> "Lottery":
        """The lottery of string labels and masses read off a density:
        nothing is checked, and its sum is the density's mass up to
        rounding, not checked again against TOL_MEASURE."""
        out = Lottery.__new__(Lottery)
        _LabelledVector.__init__(out, probs)
        return out


def normalize_utility(raw: Mapping[str, float], space: OutcomeSpace) -> Utility | None:
    """Rescale a raw utility to [0, 1]; None stands for the constant
    (completely indifferent) utility.  Positive-affine transformations of
    the input land on the identical normalised object."""
    vals = []
    for lab in space.labels:
        if lab not in raw:
            raise ValueError(f"utility missing outcome {lab!r}")
        vals.append(float(raw[lab]))
    if len(raw) != len(space.labels):
        extra = set(raw) - set(space.labels)
        raise ValueError(f"utility has unknown outcomes {sorted(extra)}")
    return _normalized_utility(space.labels, vals)


def _normalized_utility(labels: Sequence[str], vals: Sequence[float]) -> Utility | None:
    """The normalization rule shared by `normalize_utility` and the rules'
    `_merge`: `vals[k]` is the raw utility of `labels[k]`.  Non-finite
    values raise ValueError; a range of at most TOL_EXACT is the constant
    utility, None.  Otherwise (v - lo) / span is exactly 0 at the minimum
    and exactly 1 at the maximum, an `_exact_utility`."""
    if not all(map(isfinite, vals)):
        raise ValueError("utility values must be finite")
    lo = min(vals)
    span = max(vals) - lo
    if span <= TOL_EXACT:
        return None
    return _exact_utility(dict(zip(labels, [(v - lo) / span for v in vals])))


def _exact_utility(data: dict[str, float]) -> Utility:
    """`Utility(data)` for string labels and finite float values whose
    minimum is 0 and maximum 1 by construction, up to rounding far below
    TOL_EXACT: its checks cannot fail, so they are skipped."""
    util = Utility.__new__(Utility)
    _LabelledVector.__init__(util, data)
    return util


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
    def from_segments(pieces: Iterable[tuple[float, float, str]]) -> "Act":
        """The act of these pieces, sorted, with touching pieces of one
        outcome joined."""
        segs: list[tuple[float, float, str]] = []
        for a, b, lab in sorted((float(a), float(b), str(lab)) for a, b, lab in pieces):
            if segs and segs[-1][2] == lab and segs[-1][1] == a:
                segs[-1] = (segs[-1][0], b, lab)
            else:
                segs.append((a, b, lab))
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


INDIFFERENT = Preference(None, None)


def _checked_concerned(
    space: OutcomeSpace, agents: Sequence[Preference], first: int = 0
) -> tuple[int, ...]:
    """Indices, counted from `first`, of the agents that are not completely
    indifferent; raises ValueError at the first agent that is not a
    preference over the space's outcomes."""
    want = space._index.keys()
    concerned = []
    for k, pref in enumerate(agents, first):
        if not isinstance(pref, Preference):
            raise ValueError(f"agent {k} is not a Preference")
        if not pref.is_indifferent:
            if pref.utility._map.keys() != want:
                raise ValueError(f"agent {k} utility is not over the profile's outcomes")
            concerned.append(k)
    return tuple(concerned)


@dataclass(frozen=True)
class Profile:
    """Society: an outcome space plus one preference per agent (>= 3)."""

    space: OutcomeSpace
    agents: tuple[Preference, ...]
    _concerned: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.agents) < 3:
            raise ValueError("a profile needs at least three agents")
        object.__setattr__(self, "_concerned", _checked_concerned(self.space, self.agents))

    @property
    def concerned(self) -> tuple[int, ...]:
        return self._concerned

    @staticmethod
    def _derived(space: OutcomeSpace, agents: Sequence[Preference]) -> "Profile":
        """The profile of at least three agents that each passed
        `_checked_concerned` against the space, or are preferences drawn
        over its outcomes: nothing is checked again."""
        agents = tuple(agents)
        out = object.__new__(Profile)
        object.__setattr__(out, "space", space)
        object.__setattr__(out, "agents", agents)
        object.__setattr__(
            out, "_concerned", tuple([k for k, p in enumerate(agents) if p.belief is not None])
        )
        return out

    def replace(self, agent: int, pref: Preference) -> "Profile":
        """This profile with `pref` in slot `agent`; only `pref` is checked."""
        agents = list(self.agents)
        agents[agent] = pref
        _checked_concerned(self.space, (pref,), range(len(agents))[agent])
        return Profile._derived(self.space, agents)

    def permuted(self, perm: Sequence[int]) -> "Profile":
        if sorted(perm) != list(range(len(self.agents))):
            raise ValueError("not a permutation of the agents")
        return Profile._derived(self.space, [self.agents[i] for i in perm])

    def swapped(self, i: int, j: int) -> "Profile":
        agents = list(self.agents)
        agents[i], agents[j] = agents[j], agents[i]
        return Profile._derived(self.space, agents)


# ---------------------------------------------------------------------------
# evaluation


def act_value(belief: Density, value: Callable[[str], float], act: Act) -> float:
    """The act's expectation under the belief of an outcome's `value`:
    the fsum over the act's segments of mass times value."""
    masses = interval_masses(belief, act.segments)
    return fsum(m * value(lab) for m, (_, _, lab) in zip(masses, act.segments))


def expected_utility(pref: Preference, act: Act) -> float:
    """Expected utility of the act; complete indifference scores 0."""
    if pref.is_indifferent:
        return 0.0
    return act_value(pref.belief, pref.utility.value, act)


def pushforward(act: Act, belief: Density, space: OutcomeSpace) -> Lottery:
    """Outcome distribution the act induces from the belief, built
    unchecked (`Lottery._derived`): the act's segments partition [0, 1], so
    its masses are the belief's."""
    acc = {lab: [] for lab in space.labels}
    for m, (_, _, lab) in zip(interval_masses(belief, act.segments), act.segments):
        if lab not in acc:
            raise ValueError(f"act outcome {lab!r} not in space")
        acc[lab].append(m)
    return Lottery._derived({lab: fsum(parts) for lab, parts in acc.items()})


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

    Outcomes with positive weight take shares of the beliefs' common grid
    cells in label order, laid out left to right within each cell.  Each
    but the last solves M lam = p_k for 0 <= lam <= free, where M holds
    the cell masses per belief and `free` the shares not yet taken; the
    last takes what is left.  Every solve is feasible: `free` leaves the
    same mass r under every belief, so lam = (p_k / r) free works, and
    Infeasible here means an internal solver problem.
    """
    if not beliefs:
        raise ValueError("need at least one belief")
    lott = lottery if isinstance(lottery, Lottery) else Lottery(lottery, space)
    bps, M = common_grid(beliefs)
    weighted = [(lab, p) for lab in space.labels if (p := lott.value(lab)) > 0.0]
    free = [1.0] * (len(bps) - 1)
    shares = []
    for lab, p in weighted[:-1]:
        lam = lp.feasible_point(M, [p] * len(beliefs), upper=free)
        if lam is None:
            raise Infeasible("internal: lottery allocation LP reported infeasible")
        shares.append((lab, lam))
        free = list(map(sub, free, lam))
    shares.append((weighted[-1][0], free))

    pieces: list[tuple[float, float, str]] = []
    for s, (a, bnd) in enumerate(zip(bps[:-1], bps[1:])):
        start = a
        for lab, lam in shares:
            if lam[s] > _FRACTION_FLOOR:
                end = start + lam[s] * (bnd - a)
                pieces.append((start, end, lab))
                start = end
        pieces[-1] = (pieces[-1][0], bnd, pieces[-1][2])  # absorb drift at the cell edge
    return Act.from_segments(pieces)


def _cut_at_mass(density: Density, a: float, b: float, target: float) -> float:
    """Leftmost c in [a, b] with density-mass of [a, c) equal to target."""
    edges = [a, *(p for p in density.breakpoints if a < p < b), b]
    acc = 0.0
    for lo, hi, v in zip(edges, edges[1:], cell_values(density, edges)):
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
    return Act.from_segments(pieces)


# ---------------------------------------------------------------------------
# the uniform preference metric


def preference_distance(p: Preference, q: Preference) -> float:
    """Supremum over acts of the expected-utility gap between two
    preferences, computed exactly by a per-segment bang-bang choice.

    A represented preference sits at distance 1 from complete indifference
    by convention (the functionals live on different scales; callers that
    care can treat that value as an out-of-metric flag).
    """
    if p == q:
        # every per-segment gap below is then exactly zero
        return 0.0
    if p.is_indifferent or q.is_indifferent:
        return 1.0
    # labels are kept sorted, so equal label sets give equal tuples
    if p.utility.labels != q.utility.labels:
        raise ValueError("preferences range over different outcomes")
    _, masses = common_grid((p.belief, q.belief))
    up = [v for _, v in p.utility.items]
    uq = [v for _, v in q.utility.items]
    # per segment, the best act picks the outcome with the largest gap in
    # one direction (ahead) or the other (behind)
    ahead, behind = [], []
    for mp, mq in zip(*masses):
        row = [mp * x - mq * y for x, y in zip(up, uq)]
        ahead.append(max(row))
        behind.append(-min(row))
    return max(0.0, fsum(ahead), fsum(behind))


# ---------------------------------------------------------------------------
# discounting adapter


def discount_to_belief(breakpoints: Sequence[float], values: Sequence[float]) -> Density:
    """Scale any nonnegative step function on [0, 1), such as a discount
    function over time, to a belief that integrates to one: each value is
    divided by the fsum of value times cell width.  The package's one
    rescaling of unnormalised densities, except `harness.random_density`.
    Raises ZeroFunction when that integral is at most TOL_EXACT."""
    bp = tuple(float(x) for x in breakpoints)
    vals = tuple(float(v) for v in values)
    if any(v < 0.0 for v in vals):
        raise ValueError("discount values must be nonnegative")
    total = fsum(v * (bp[i + 1] - bp[i]) for i, v in enumerate(vals))
    if total <= TOL_EXACT:
        raise ZeroFunction("discount function is identically zero")
    return Density(bp, tuple(v / total for v in vals))
