"""Cellular-automaton gait-state predictor.

A leg state is a 4-bit code: bit 3 names the leg (0 left, 1 right) and the
low three bits one of eight sub-phases. The transition rules are a fixed
16-row lookup loaded from the bundled fixture; as tabulated they form an
involution, so following them twice returns the starting code. A separate
map pairs each sub-phase of one leg with the simultaneous sub-phase of the
other.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache

from .fixtures import fixture_path
from .records import FrozenRecord
from .tables import read_table

# Longest sequence predict_sequence builds; its states hold about 88 bytes each.
MAX_STEPS = 1_000_000


class Leg(IntEnum):
    LEFT = 0
    RIGHT = 1


class SubPhase(IntEnum):
    """Eight-sub-phase breakdown of one leg's cycle."""

    IC = 0    # initial contact
    LR = 1    # loading response
    MS = 2    # mid stance
    TST = 3   # terminal stance
    PSW = 4   # pre swing
    ISW = 5   # initial swing
    MSW = 6   # mid swing
    TSW = 7   # terminal swing


class CAState(FrozenRecord):
    """One leg's 4-bit gait-state code."""

    __slots__ = ("code",)

    def __init__(self, code: int):
        if not 0 <= code <= 15:
            raise ValueError(f"code must be a 4-bit value, got {code}")
        self._set(code)

    @property
    def leg(self) -> Leg:
        return Leg(self.code >> 3)

    @property
    def subphase(self) -> SubPhase:
        return SubPhase(self.code & 0b111)

    @property
    def bits(self) -> str:
        return format(self.code, "04b")

    @classmethod
    def from_bits(cls, bits: str) -> "CAState":
        if len(bits) != 4 or set(bits) - {"0", "1"}:
            raise ValueError(f"expected a 4-character binary string, got {bits!r}")
        return cls(int(bits, 2))


def encode(leg: Leg, subphase: SubPhase) -> CAState:
    """Pack (leg, sub-phase) into the 4-bit code; inverse of :func:`decode`."""
    return CAState((int(leg) << 3) | int(subphase))


def decode(state: CAState) -> tuple[Leg, SubPhase]:
    return state.leg, state.subphase


@lru_cache(maxsize=1)
def _tables() -> tuple[dict[int, int], dict[SubPhase, SubPhase]]:
    """The bundled ``next`` and ``complement`` maps. A table of another shape
    raises ``ValueError("{path}: malformed CA rules: ...")``."""
    return read_table(fixture_path("ca_rules.json"), "CA rules", _convert_tables)


def _convert_tables(doc) -> tuple[dict[int, int], dict[SubPhase, SubPhase]]:
    nxt = {int(k, 2): int(v, 2) for k, v in doc["next"].items()}
    comp = {SubPhase[k]: SubPhase[v] for k, v in doc["complement"].items()}
    if sorted(nxt) != list(range(16)) or not set(nxt.values()) <= set(nxt):
        raise ValueError("next must map all 16 codes to codes")
    if len(comp) != len(SubPhase):
        raise ValueError("complement must cover all 8 sub-phases")
    return nxt, comp


def next_state(state: CAState) -> CAState:
    """Tabulated transition for one code."""
    return CAState(_tables()[0][state.code])


def complement(subphase: SubPhase) -> SubPhase:
    """Simultaneous sub-phase of the opposite leg.

    The tabulated pairs are kept verbatim even where they are asymmetric
    (e.g. ISW -> MS but MS -> MSW).
    """
    return _tables()[1][subphase]


def predict_sequence(init: CAState, n: int) -> list[CAState]:
    """Iterate the rule table; element 0 is the initial state."""
    if not 1 <= n <= MAX_STEPS:
        raise ValueError(f"n must lie in [1, {MAX_STEPS}], got {n}")
    seq = [init]
    for _ in range(n - 1):
        seq.append(next_state(seq[-1]))
    return seq
