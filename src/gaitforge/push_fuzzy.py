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
from .tables import number, read_table


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


@lru_cache(maxsize=1)
def _rules() -> dict:
    """The bundled rule table, converted once into the form the functions
    below read: numbers as floats, force sets as (a, b, c, d) and bands as
    (lo, hi), reaction terms as (roll, pitch) pairs, strategies as
    :class:`Strategy` members and each validation interval as (lo, hi),
    low end first. A table of another shape raises
    ``ValueError("{path}: malformed push rules: ...")`` before any rule
    runs."""
    return read_table(fixture_path("push_rules.json"), "push rules", _convert_rules)


def _convert_rules(doc) -> dict:
    rules = {
        "force_limit": number(doc["force_limit"]),
        "force_sets": {name: _floats(abcd, 4) for name, abcd in doc["force_sets"].items()},
        "fis1": {level: _term_pair((terms["roll"], terms["pitch"]))
                 for level, terms in doc["fis1"].items()},
        "fis2": {Strategy(name).value: [_term_pair(cell) for cell in cells]
                 for name, cells in doc["fis2"].items()},
        "bands": {name: _floats(band, 2) for name, band in doc["bands"].items()},
        "lookup": [(row["band"], row["roll"], row["pitch"], Strategy(row["strategy"]))
                   for row in doc["lookup"]],
        "validation": [(row["band"],
                        {jkey: tuple(sorted(_floats(ab, 2)))
                         for jkey, ab in row["intervals"].items()},
                        Strategy(row["strategy"]))
                       for row in doc["validation"]],
    }
    if len(rules["fis2"]) != len(Strategy) or not all(rules["fis2"].values()):
        raise ValueError("'fis2' must give each strategy a non-empty list of "
                         "[roll, pitch] term pairs")
    return rules


def _floats(values, n: int) -> tuple[float, ...]:
    floats = tuple(map(number, values))
    if len(floats) != n:
        raise ValueError(f"expected {n} numbers, got {len(floats)}")
    return floats


def _term_pair(cell) -> tuple[str, str]:
    roll, pitch = cell
    if roll not in ROLL_KEYS or pitch not in PITCH_KEYS:
        raise ValueError(f"{list(cell)!r} is not a [roll, pitch] term pair")
    return roll, pitch


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
    for level, (roll_key, pitch_key) in _rules()["fis1"].items():
        strength = float(force_degrees.get(level, 0.0))
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
    candidates = [name for name, (lo, hi) in _rules()["bands"].items() if lo <= magnitude <= hi]
    for band, row_roll, row_pitch, strategy in _rules()["lookup"]:
        if band in candidates and row_roll == roll and row_pitch == pitch:
            return strategy
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
    for band, intervals, expected in _rules()["validation"]:
        # a joint without an observation is outside its interval
        if all(lo <= observed_angles.get(jkey, math.nan) <= hi
               for jkey, (lo, hi) in intervals.items()):
            status = "pass" if expected == response.strategy else "mismatch"
            return RangeCheckOutcome(status=status, band=band, expected=expected)
    return RangeCheckOutcome(status="unmatched")
