"""Hierarchical type-1 fuzzy push-recovery controller.

Two chained inference stages decide how a standing biped answers a push.
The first fuzzifies the push magnitude into small/average/large and crosses
it with the push direction to grade the body reaction (roll for sideways
pushes, pitch for sagittal ones). The second maps the reaction grid onto a
recovery strategy: counter-torque at the ankle, knee bend, hip lunge, or a
fall when the reaction saturates both axes. Rule firing is min, aggregation
across rules max (consequent clipping); the categorical output is the
highest-degree strategy. Pushes above 12 N are outside the controller's
envelope and signal recovery-impossible instead of classifying as a fall.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Mapping, NamedTuple

from .fixtures import fixture_path
from .records import FrozenRecord
from .tables import is_number, read_json


class Direction(Enum):
    LEFT = "left"
    RIGHT = "right"
    FORWARD = "forward"
    BACKWARD = "backward"


class Strategy(Enum):
    ANKLE = "ankle"
    KNEE = "knee"
    HIP = "hip"
    FALL_FRONTAL = "fall_frontal"
    FALL_SIDEWAYS = "fall_sideways"
    FALL = "fall"

    @property
    def severity(self) -> int:
        """Position in declaration order, mildest first."""
        return list(Strategy).index(self)

    @property
    def is_fall(self) -> bool:
        return self.severity >= 3


ROLL_KEYS = ("small_roll", "average_roll", "large_roll")
PITCH_KEYS = ("small_pitch", "average_pitch", "large_pitch")
REACTION_KEYS = ROLL_KEYS + PITCH_KEYS

class RecoveryImpossible(ValueError):
    """Push magnitude beyond the recoverable envelope."""


class NoDecision(ValueError):
    """Every reaction degree is zero; no rule fires."""


class ForceInput(FrozenRecord):
    """A push: magnitude in Newtons plus a crisp direction.

    A mapping of per-direction degrees in [0, 1] is accepted instead of a
    crisp direction, e.g. to describe a diagonal push exciting both axes.
    """

    __slots__ = ("magnitude", "direction")

    def __init__(self, magnitude: float,
                 direction: Direction | Mapping[Direction, float]):
        if not (math.isfinite(magnitude) and magnitude >= 0.0):
            raise ValueError("force magnitude must be finite and >= 0")
        self._set(magnitude, direction)

    def direction_degrees(self) -> dict[Direction, float]:
        if isinstance(self.direction, Direction):
            return {d: 1.0 if d == self.direction else 0.0 for d in Direction}
        degrees = {d: 0.0 for d in Direction}
        for d, v in self.direction.items():
            d = Direction(d) if not isinstance(d, Direction) else d
            if not 0.0 <= v <= 1.0:
                raise ValueError("direction degrees must lie in [0, 1]")
            degrees[d] = float(v)
        return degrees


class ReactionMembership(FrozenRecord):
    """Degrees of the six reaction terms, each in [0, 1]."""

    __slots__ = REACTION_KEYS

    def __init__(self, small_roll: float = 0.0, average_roll: float = 0.0,
                 large_roll: float = 0.0, small_pitch: float = 0.0,
                 average_pitch: float = 0.0, large_pitch: float = 0.0):
        degrees = (small_roll, average_roll, large_roll,
                   small_pitch, average_pitch, large_pitch)
        for key, v in zip(REACTION_KEYS, degrees):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{key} degree {v} outside [0, 1]")
        self._set(*degrees)

    def as_dict(self) -> dict[str, float]:
        return {key: getattr(self, key) for key in REACTION_KEYS}


class PushResponse(NamedTuple):
    reaction: ReactionMembership
    strategy: Strategy
    fell: bool                            # the fall/no-fall verdict
    strategy_degrees: Mapping[str, float]

    def as_dict(self) -> dict:
        return {
            "reaction": self.reaction.as_dict(),
            "strategy": self.strategy.value,
            "state": "fall" if self.fell else "not_fall",
            "strategy_degrees": dict(self.strategy_degrees),
        }


def _numbers(value, n: int) -> bool:
    return isinstance(value, list) and len(value) == n and all(map(is_number, value))


def _is_pair(cell) -> bool:
    return (isinstance(cell, list) and len(cell) == 2
            and cell[0] in ROLL_KEYS and cell[1] in PITCH_KEYS)


_STRATEGY_NAMES = sorted(s.value for s in Strategy)

# Each key of the rule table, the shape the functions below index it by, and
# a test of that shape
_RULE_SHAPES = {
    "force_limit": ("a finite number", lambda v: is_number(v) and math.isfinite(v)),
    "force_sets": ("an object of [a, b, c, d] number lists",
                   lambda v: isinstance(v, dict) and all(_numbers(s, 4) for s in v.values())),
    "fis1": ('an object of {"roll", "pitch"} reaction terms',
             lambda v: isinstance(v, dict) and all(
                 isinstance(c, dict) and _is_pair([c.get("roll"), c.get("pitch")])
                 for c in v.values())),
    "fis2": ("an object of non-empty [roll, pitch] term-pair lists, one per strategy",
             lambda v: isinstance(v, dict) and sorted(v) == _STRATEGY_NAMES
             and all(isinstance(cells, list) and cells and all(map(_is_pair, cells))
                     for cells in v.values())),
    "bands": ("an object of [lo, hi] number pairs",
              lambda v: isinstance(v, dict) and all(_numbers(b, 2) for b in v.values())),
    "lookup": ('a list of {"band", "roll", "pitch", "strategy"} rows',
               lambda v: isinstance(v, list) and all(
                   isinstance(r, dict) and r.get("strategy") in _STRATEGY_NAMES
                   and all(isinstance(r.get(k), str) for k in ("band", "roll", "pitch"))
                   for r in v)),
    "validation": ('a list of {"band", "intervals", "strategy"} rows, each interval '
                   'a [lo, hi] number pair',
                   lambda v: isinstance(v, list) and all(
                       isinstance(r, dict) and "band" in r
                       and r.get("strategy") in _STRATEGY_NAMES
                       and isinstance(r.get("intervals"), dict)
                       and all(_numbers(i, 2) for i in r["intervals"].values()) for r in v)),
}


@lru_cache(maxsize=1)
def _rules() -> dict:
    """The bundled rule table. Every key the controller reads is checked
    here, once, so a malformed table raises
    ``ValueError("{path}: malformed push rules: ...")`` before any rule runs."""
    path = fixture_path("push_rules.json")
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: malformed push rules: expected an object")
    for key, (shape, ok) in _RULE_SHAPES.items():
        if key not in doc:
            raise ValueError(f"{path}: malformed push rules: no {key!r}")
        if not ok(doc[key]):
            raise ValueError(f"{path}: malformed push rules: {key!r} must be {shape}")
    return doc


def _trapezoid(x: float, abcd) -> float:
    a, b, c, d = abcd
    if x < a or x > d:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    if x <= c:
        return 1.0
    # here c < x <= d, so d - c > 0
    return (d - x) / (d - c)


def _check_force(magnitude: float) -> None:
    """A magnitude the controller can act on: finite, >= 0 and inside the
    envelope, past which it raises :class:`RecoveryImpossible`."""
    if not (math.isfinite(magnitude) and magnitude >= 0.0):
        raise ValueError("force magnitude must be finite and >= 0")
    limit = _rules()["force_limit"]
    if magnitude > limit:
        raise RecoveryImpossible(f"{magnitude} N exceeds the {limit} N envelope")


def fuzzify_force(magnitude: float) -> dict[str, float]:
    """Membership of a push magnitude in {small, average, large}.

    The linguistic supports overlap (4-5 N and 8-9 N), so neighbouring
    degrees ramp linearly across the overlap and every magnitude in
    [0, 12] activates at least one term. Beyond 12 N the controller cannot
    recover and raises :class:`RecoveryImpossible`.
    """
    _check_force(magnitude)
    return {
        name: _trapezoid(magnitude, abcd)
        for name, abcd in _rules()["force_sets"].items()
    }


def fis1_infer(force_degrees: Mapping[str, float],
               direction: Direction | Mapping[Direction, float]) -> ReactionMembership:
    """First stage: grade the body reaction from force level and direction.

    Sideways pushes (left/right) feed the roll terms, sagittal pushes
    (forward/backward) the pitch terms; each rule fires with the min of its
    force degree and its direction degree, and rules sharing a consequent
    aggregate with max. A crisp direction is degree 1 for itself, 0 for the
    rest.
    """
    dd = ForceInput(0.0, direction).direction_degrees()
    roll_dir = max(dd[Direction.LEFT], dd[Direction.RIGHT])
    pitch_dir = max(dd[Direction.FORWARD], dd[Direction.BACKWARD])
    out = {key: 0.0 for key in REACTION_KEYS}
    for level, consequents in _rules()["fis1"].items():
        strength = float(force_degrees.get(level, 0.0))
        roll_key, pitch_key = consequents["roll"], consequents["pitch"]
        out[roll_key] = max(out[roll_key], min(strength, roll_dir))
        out[pitch_key] = max(out[pitch_key], min(strength, pitch_dir))
    return ReactionMembership(**out)


def fis2_infer(reaction: ReactionMembership) -> PushResponse:
    """Second stage: reaction grid to recovery strategy.

    Each strategy takes the max over its grid cells of min(roll degree,
    pitch degree). A push that excites only one axis leaves the other silent;
    a silent axis is read as fully small (no roll evidence means at most a
    small roll), otherwise no two-sided rule could fire. Ties at the argmax
    resolve to the lower-severity strategy.
    """
    degrees = reaction.as_dict()
    if all(v == 0.0 for v in degrees.values()):
        raise NoDecision("all reaction degrees are zero")
    eff = dict(degrees)
    if all(eff[k] == 0.0 for k in ROLL_KEYS):
        eff["small_roll"] = 1.0
    if all(eff[k] == 0.0 for k in PITCH_KEYS):
        eff["small_pitch"] = 1.0

    strategy_degrees = {}
    for name, cells in _rules()["fis2"].items():
        strategy_degrees[name] = max(
            min(eff[roll_key], eff[pitch_key]) for roll_key, pitch_key in cells
        )
    best = max(
        Strategy,
        key=lambda s: (strategy_degrees[s.value], -s.severity),
    )
    return PushResponse(
        reaction=reaction,
        strategy=best,
        fell=best.is_fall,
        strategy_degrees=strategy_degrees,
    )


def recover(push: ForceInput) -> PushResponse:
    """Full pipeline: fuzzify the force, grade the reaction, pick the
    strategy. Deterministic; propagates the over-limit signal."""
    force_degrees = fuzzify_force(push.magnitude)
    reaction = fis1_infer(force_degrees, push.direction)
    return fis2_infer(reaction)


# ---------------------------------------------------------------------------
# Offline lookup and validation tables
# ---------------------------------------------------------------------------

_LEVELS = ("small", "average", "large")


def _parse_reaction_description(description) -> tuple[str, str]:
    """Accept "<level> Roll and <level> Pitch" in either order, or a
    (roll_level, pitch_level) pair."""
    if isinstance(description, (tuple, list)) and len(description) == 2:
        roll, pitch = (str(v).lower() for v in description)
    else:
        text = str(description).lower()
        roll = pitch = None
        for level in _LEVELS:
            if f"{level} roll" in text:
                roll = level
            if f"{level} pitch" in text:
                pitch = level
        if roll is None or pitch is None:
            raise ValueError(f"cannot parse reaction description {description!r}")
    if roll not in _LEVELS or pitch not in _LEVELS:
        raise ValueError(f"unknown reaction levels ({roll}, {pitch})")
    return roll, pitch


def lookup_strategy(magnitude: float, reaction_description) -> Strategy:
    """Offline controller: exact row lookup of the precomputed table.

    The force bands overlap, so the magnitude may admit two bands; the row
    whose band contains the magnitude and whose reaction pair matches wins.
    """
    _check_force(magnitude)
    roll, pitch = _parse_reaction_description(reaction_description)
    bands = _rules()["bands"]
    candidates = {
        name for name, (lo, hi) in bands.items() if lo <= magnitude <= hi
    }
    for row in _rules()["lookup"]:
        if row["band"] in candidates and row["roll"] == roll and row["pitch"] == pitch:
            return Strategy(row["strategy"])
    raise LookupError(
        f"no table row for {magnitude} N with {roll} roll / {pitch} pitch"
    )


class RangeCheckOutcome(NamedTuple):
    status: str                      # "pass" | "mismatch" | "unmatched"
    band: str | None = None
    expected: Strategy | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def validate_against_ranges(response: PushResponse,
                            observed_angles: Mapping[str, float]) -> RangeCheckOutcome:
    """Check a response against the captured joint-angle bands.

    Finds the force band whose six intervals contain the observation and
    compares its expected strategy with the response's. Observations outside
    every band report "unmatched" rather than failing.
    """
    if len(observed_angles) != 6:
        raise ValueError("expected one angle per joint (six values)")
    for row in _rules()["validation"]:
        hit = True
        for jkey, (a, b) in row["intervals"].items():
            lo, hi = min(a, b), max(a, b)
            angle = observed_angles.get(jkey)
            if angle is None or not lo <= angle <= hi:
                hit = False
                break
        if hit:
            expected = Strategy(row["strategy"])
            status = "pass" if expected == response.strategy else "mismatch"
            return RangeCheckOutcome(status=status, band=row["band"], expected=expected)
    return RangeCheckOutcome(status="unmatched")
