import math

import numpy as np
import pytest

from gaitforge.push_fuzzy import (
    Direction,
    ForceInput,
    NoDecision,
    PushResponse,
    ReactionMembership,
    RecoveryImpossible,
    Strategy,
    direction_degrees,
    fis1_infer,
    fis2_infer,
    fuzzify_force,
    lookup_strategy,
    recover,
    validate_against_ranges,
)


# ---------------------------------------------------------------------------
# fuzzification
# ---------------------------------------------------------------------------

def test_plateau_interior():
    degrees = fuzzify_force(0.0)
    assert degrees == {"small": 1.0, "average": 0.0, "large": 0.0}


def test_overlap_midpoint():
    degrees = fuzzify_force(4.5)
    assert degrees["small"] == pytest.approx(0.5)
    assert degrees["average"] == pytest.approx(0.5)
    assert degrees["large"] == 0.0


def test_large_plateau():
    assert fuzzify_force(10.0)["large"] == 1.0
    assert fuzzify_force(12.0)["large"] == 1.0


def test_beyond_envelope():
    with pytest.raises(RecoveryImpossible):
        fuzzify_force(12.5)


def test_degrees_bounded_and_someone_fires():
    for f in np.arange(0.0, 12.01, 0.05):
        degrees = fuzzify_force(float(f))
        assert all(0.0 <= v <= 1.0 for v in degrees.values())
        assert max(degrees.values()) > 0.0


# ---------------------------------------------------------------------------
# FIS1
# ---------------------------------------------------------------------------

def test_small_backward_gives_small_pitch_only():
    reaction = fis1_infer({"small": 1.0, "average": 0.0, "large": 0.0},
                          Direction.BACKWARD)
    assert reaction.small_pitch == 1.0
    others = [v for k, v in reaction.as_dict().items() if k != "small_pitch"]
    assert all(v == 0.0 for v in others)


def test_large_left_gives_large_roll():
    reaction = fis1_infer({"small": 0.0, "average": 0.0, "large": 1.0},
                          Direction.LEFT)
    assert reaction.large_roll == 1.0


def test_zero_force_degrees_give_zero_reaction():
    reaction = fis1_infer({"small": 0.0, "average": 0.0, "large": 0.0},
                          Direction.FORWARD)
    assert all(v == 0.0 for v in reaction.as_dict().values())


def test_degree_valued_direction():
    reaction = fis1_infer(
        {"small": 1.0, "average": 0.0, "large": 0.0},
        {Direction.LEFT: 0.4, Direction.BACKWARD: 0.9},
    )
    assert reaction.small_roll == pytest.approx(0.4)
    assert reaction.small_pitch == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# FIS2
# ---------------------------------------------------------------------------

def test_small_small_is_ankle():
    out = fis2_infer(ReactionMembership(small_roll=1.0, small_pitch=1.0))
    assert out.strategy == Strategy.ANKLE
    assert not out.fell


def test_large_large_is_fall():
    out = fis2_infer(ReactionMembership(large_roll=1.0, large_pitch=1.0))
    assert out.strategy == Strategy.FALL
    assert out.fell


def test_average_average_is_hip():
    out = fis2_infer(ReactionMembership(average_roll=1.0, average_pitch=1.0))
    assert out.strategy == Strategy.HIP
    assert not out.fell


def test_all_zero_reaction_is_no_decision():
    with pytest.raises(NoDecision):
        fis2_infer(ReactionMembership())


def test_degrees_stay_in_unit_interval():
    out = fis2_infer(ReactionMembership(small_roll=0.3, average_pitch=0.8))
    assert all(0.0 <= v <= 1.0 for v in out.strategy_degrees.values())


def test_argmax_invariant_under_uniform_scaling():
    base = dict(small_roll=0.8, average_roll=0.2, large_pitch=0.5)
    ref = fis2_infer(ReactionMembership(**base)).strategy
    for c in (0.1, 0.35, 0.99):
        scaled = {k: c * v for k, v in base.items()}
        assert fis2_infer(ReactionMembership(**scaled)).strategy == ref


def test_strategy_severity_is_the_declaration_order():
    assert [(s.value, s.severity, s.is_fall) for s in Strategy] == [
        ("ankle", 0, False), ("knee", 1, False), ("hip", 2, False),
        ("fall_frontal", 3, True), ("fall_sideways", 4, True), ("fall", 5, True),
    ]


def test_ties_resolve_to_lower_severity():
    out = fis2_infer(ReactionMembership(average_roll=0.5, average_pitch=0.5,
                                        small_roll=0.5, small_pitch=0.5))
    # ankle, knee and hip all fire at 0.5; the cheapest action wins
    assert out.strategy == Strategy.ANKLE


# ---------------------------------------------------------------------------
# recover pipeline
# ---------------------------------------------------------------------------

def test_recover_examples():
    assert recover(ForceInput(2.0, Direction.BACKWARD)).strategy == Strategy.ANKLE
    assert recover(ForceInput(10.0, Direction.LEFT)).strategy == Strategy.HIP
    with pytest.raises(RecoveryImpossible):
        recover(ForceInput(13.0, Direction.FORWARD))


def test_push_keeps_its_direction_degrees_not_the_callers_mapping():
    degrees = {Direction.LEFT: 0.5}
    push = ForceInput(2.0, degrees)
    degrees[Direction.LEFT] = 7.0
    assert recover(push) == recover(ForceInput(2.0, {Direction.LEFT: 0.5}))
    assert hash(push) == hash(ForceInput(2.0, {Direction.LEFT: 0.5}))
    assert direction_degrees(push.direction) == {
        Direction.LEFT: 0.5, Direction.RIGHT: 0.0,
        Direction.FORWARD: 0.0, Direction.BACKWARD: 0.0}


def test_recover_state_flag():
    response = recover(ForceInput(2.0, Direction.BACKWARD))
    assert not response.fell
    diag = recover(ForceInput(10.0, {Direction.LEFT: 1.0, Direction.BACKWARD: 1.0}))
    assert diag.strategy == Strategy.FALL
    assert diag.fell


def test_monotone_severity_on_crisp_inputs():
    for direction in Direction:
        last = -1
        for f in np.arange(0.0, 12.01, 0.1):
            severity = recover(ForceInput(float(f), direction)).strategy.severity
            assert severity >= last
            last = severity


def test_strategy_is_argmax_of_degrees():
    for f, d in ((3.0, Direction.LEFT), (7.0, Direction.FORWARD), (11.0, Direction.RIGHT)):
        out = recover(ForceInput(f, d))
        best = max(out.strategy_degrees.values())
        assert out.strategy_degrees[out.strategy.value] == best


# ---------------------------------------------------------------------------
# offline lookup table
# ---------------------------------------------------------------------------

def test_lookup_examples():
    assert lookup_strategy(2.0, "Small Roll and Small Pitch") == Strategy.ANKLE
    assert lookup_strategy(10.0, "Average Roll and Large Pitch") == Strategy.FALL
    with pytest.raises(RecoveryImpossible):
        lookup_strategy(13.0, "Small Roll and Small Pitch")


def test_lookup_accepts_pair_form_and_reversed_wording():
    assert lookup_strategy(6.5, ("small", "average")) == Strategy.KNEE
    assert lookup_strategy(6.5, "Average Pitch and Small Roll") == Strategy.KNEE


def test_lookup_unmatched_row():
    with pytest.raises(LookupError):
        lookup_strategy(2.0, "Large Roll and Large Pitch")


@pytest.mark.parametrize("force", [math.nan, math.inf, -1e-3])
def test_a_push_force_must_be_finite_and_not_negative(force):
    rule = "^force magnitude must be finite and >= 0$"
    with pytest.raises(ValueError, match=rule):
        ForceInput(force, Direction.LEFT)
    with pytest.raises(ValueError, match=rule):
        fuzzify_force(force)
    with pytest.raises(ValueError, match=rule):
        lookup_strategy(force, ("small", "small"))


def test_lookup_rejects_garbage():
    with pytest.raises(ValueError):
        lookup_strategy(2.0, "no reaction here")


# representative crisp inputs, one per table row
TABLE_ROWS = [
    (2.0, Direction.BACKWARD, "Small Roll and Small Pitch", Strategy.ANKLE),
    (4.75, Direction.BACKWARD, "Small Roll and Average Pitch", Strategy.KNEE),
    (6.5, Direction.BACKWARD, "Average Pitch and Small Roll", Strategy.KNEE),
    (10.0, Direction.LEFT, "Large Roll and Small Pitch", Strategy.HIP),
    (10.0, Direction.BACKWARD, "Large Pitch and Small Roll", Strategy.HIP),
    (8.4, {Direction.LEFT: 1.0, Direction.BACKWARD: 1.0},
     "Average Pitch and Average Roll", Strategy.HIP),
    (10.0, {Direction.LEFT: 1.0, Direction.BACKWARD: 1.0},
     "Large Roll and Large Pitch", Strategy.FALL),
    (8.8, {Direction.LEFT: 1.0, Direction.BACKWARD: 1.0},
     "Average Roll and Large Pitch", Strategy.FALL),
]


@pytest.mark.parametrize("force,direction,description,expected", TABLE_ROWS)
def test_lookup_agrees_with_inference(force, direction, description, expected):
    assert lookup_strategy(force, description) == expected
    response = recover(ForceInput(force, direction))
    got = response.strategy
    # the inference path may name the specific fall plane; the offline table
    # only records the generic fall verdict
    if expected == Strategy.FALL:
        assert got.is_fall
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# validation table
# ---------------------------------------------------------------------------

SMALL_BAND_ANGLES = {
    "left_hip": 5.0, "left_knee": 6.0, "left_ankle": 2.0,
    "right_hip": -7.0, "right_knee": -3.0, "right_ankle": -3.0,
}


def test_validation_pass():
    response = recover(ForceInput(2.0, Direction.BACKWARD))
    outcome = validate_against_ranges(response, SMALL_BAND_ANGLES)
    assert outcome.ok
    assert outcome.band == "small"


def test_validation_mismatch():
    response = recover(ForceInput(10.0, Direction.LEFT))  # hip strategy
    outcome = validate_against_ranges(response, SMALL_BAND_ANGLES)
    assert outcome.status == "mismatch"
    assert outcome.expected == Strategy.ANKLE


def test_validation_unmatched():
    angles = {k: 1000.0 for k in SMALL_BAND_ANGLES}
    response = recover(ForceInput(2.0, Direction.BACKWARD))
    outcome = validate_against_ranges(response, angles)
    assert outcome.status == "unmatched"
    assert outcome.band is None


def test_validation_needs_six_angles():
    response = recover(ForceInput(2.0, Direction.BACKWARD))
    with pytest.raises(ValueError):
        validate_against_ranges(response, {"left_hip": 0.0})


def test_membership_validation():
    with pytest.raises(ValueError):
        ReactionMembership(small_roll=1.2)
    with pytest.raises(ValueError):
        ForceInput(-1.0, Direction.LEFT)
    with pytest.raises(ValueError):
        ForceInput(2.0, {Direction.LEFT: 1.5})
