"""TDMA cycle construction and flooding time sync.

One cycle (superframe) is built as:

    [sync flood] [uplink FB slot per plant] [compute gap] [downlink CMD slot per plant]
    [shared retx flood slots]

Feedback slots always precede command slots, so every loop closes within a
single cycle on fresh feedback.  The compute gap is a scheduled entry like any
slot but is extended by the configured gap time; it carries no transmission.

Duplexing is modeled as two disjoint channel sets (forward band for sync,
commands and retransmissions; feedback band for uplink slots), both indexed by
per-band hop sequences.  Each slot carries its start offset and its band's
sequence `hop`; the executor in `simulation.py` puts slot `i` of cycle `c` on
channel `hop[(c + i) mod len(hop)]`.

The slot layout and the flooding sync wave rules here are documented
reconstructions of a proprietary industrial MAC; scenario configs expose every
constant.  What the retx slots carry, and who floods it, is decided by the
per-cycle executor in `simulation.py`.

A sync flood visits each listening node once per wave, and a node leaves the
listeners once it has received; its report (`BeaconReport`, `BeaconReception`)
is a set of immutable named tuples built once per cycle through `tuple.__new__`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .channel import Medium, ReceptionOutcome, Transmission
from .engine import Engine, SimTime
from .frames import BROADCAST, SyncFrame, new_record


class ScheduleError(ValueError):
    """Invalid plant set or protocol constants."""


class Direction:
    """The direction of a slot: plain str constants, compared by identity."""

    SYNC = "sync"
    UPLINK = "uplink"
    DOWNLINK = "downlink"
    RETX = "retx"
    GAP = "gap"


@dataclass(frozen=True)
class Slot:
    position: int
    direction: str       # a `Direction` constant
    owner: int | None    # transmitting node; None for flood and gap slots
    plant: int | None    # the robot of an uplink or downlink slot; None otherwise
    offset_us: int       # start from cycle start; the gap lasts one slot + compute gap
    hop: tuple[int, ...]  # the band's hop sequence; () for the gap


@dataclass(frozen=True)
class CycleSchedule:
    """The per-cycle slot layout, each slot with its hop sequence; identical for
    every cycle."""

    slots: tuple[Slot, ...]
    slot_duration_us: int
    compute_gap_us: int

    @property
    def cycle_length_us(self) -> int:
        """Every scheduled entry takes one slot, plus the compute gap."""
        return len(self.slots) * self.slot_duration_us + self.compute_gap_us


def _check_permutation(hop: tuple[int, ...], name: str) -> None:
    if sorted(hop) != list(range(len(hop))):
        raise ScheduleError(f"{name} hop sequence {hop} is not a permutation of 0..{len(hop) - 1}")


def build_schedule(controller: int, plants: list[int], *, slot_duration_us: int = 250,
                   compute_gap_us: int = 500, retx_slots: int = 2,
                   hop_forward: tuple[int, ...], hop_feedback: tuple[int, ...]) -> CycleSchedule:
    """Build the cycle layout for one controller closing a radio loop per plant.

    Slot order: sync flood, one feedback slot per plant (plant-id order), the
    compute gap, one command slot per plant (same order), then the shared
    retransmission flood slots.
    """
    if not plants:
        raise ScheduleError("need at least one control loop")
    _check_permutation(hop_forward, "forward")
    _check_permutation(hop_feedback, "feedback")
    if len(set(plants)) != len(plants):
        raise ScheduleError("duplicate slot ownership: one plant serves two loops")
    if controller in plants:
        raise ScheduleError(f"node {controller}: controller and plant are the same node")

    ordered = sorted(plants)
    entries = [(Direction.SYNC, None, None)]
    entries += [(Direction.UPLINK, plant, plant) for plant in ordered]
    entries.append((Direction.GAP, None, None))
    entries += [(Direction.DOWNLINK, controller, plant) for plant in ordered]
    entries += [(Direction.RETX, None, None)] * retx_slots
    hop_forward, hop_feedback = tuple(hop_forward), tuple(hop_feedback)
    slots, offset_us = [], 0
    for position, (direction, owner, plant) in enumerate(entries):
        hop = (hop_feedback if direction is Direction.UPLINK
               else () if direction is Direction.GAP else hop_forward)
        slots.append(Slot(position, direction, owner, plant, offset_us, hop))
        offset_us += slot_duration_us + (compute_gap_us if direction is Direction.GAP else 0)
    return CycleSchedule(slots=tuple(slots), slot_duration_us=slot_duration_us,
                         compute_gap_us=compute_gap_us)


@dataclass
class SyncState:
    """Per-node sync bookkeeping; a desynced node only listens until re-synced."""

    synced: bool = True
    missed_beacons: int = 0


@dataclass(frozen=True)
class SyncParams:
    jitter_us: float = field(default=10.0, metadata={"ge": 0})  # residual error per flood wave
    max_waves: int = field(default=2, metadata={"ge": 1})       # beacon waves in the sync slot
    miss_limit: int = field(default=3, metadata={"ge": 1})      # missed beacons before desync


class BeaconReception(NamedTuple):
    node: int
    wave: int
    residual_us: float


class BeaconReport(NamedTuple):
    transmissions: list[tuple[int, Transmission]]          # (wave, tx)
    outcomes: list[tuple[int, SimTime, ReceptionOutcome]]  # (wave, time, outcome)
    receptions: list[BeaconReception]
    desynced: list[int]


def run_sync_beacon(engine: Engine, medium: Medium, channel: int, cycle_index: int,
                    originator: int, nodes: list[int], states: dict[int, SyncState],
                    params: SyncParams, cycle_start: SimTime) -> BeaconReport:
    """Flood one sync beacon on `channel`, the sync slot's hop channel in this
    cycle, and update node sync states.

    The originator transmits in wave 1; every node that first received in wave
    k retransmits in wave k+1, up to max_waves.  A node that receives in wave k
    re-aligns to the beacon with a residual error that accumulates one uniform
    +/- jitter draw per wave traversed; the residual is reported, not applied.
    Desynced nodes still listen for beacons (that is the recovery path);
    reception resets their miss count.
    """
    slot = medium.begin_slot()
    beacon_seq = cycle_index & 0xFFFF
    listening = [n for n in sorted(nodes) if n != originator]
    senders = [originator]  # the nodes that first received in the previous wave
    transmissions: list[tuple[int, Transmission]] = []
    outcomes: list[tuple[int, SimTime, ReceptionOutcome]] = []
    receptions: list[BeaconReception] = []

    for wave in range(1, params.max_waves + 1):
        if not senders:
            break
        at = cycle_start + (wave - 1) * medium.airtime_us
        frame = new_record(SyncFrame, (originator, beacon_seq, cycle_index, wave, BROADCAST))
        txs = []
        for sender in senders:
            txs.append(medium.make_transmission(sender, frame, slot, channel, at))
            transmissions.append((wave, txs[-1]))
        senders, missed = [], []
        for node in listening:
            outcome = medium.deliver_flood(txs, node)
            outcomes.append((wave, at, outcome))
            if outcome.received:
                senders.append(node)
                draws = engine.draws(node, "sync", -params.jitter_us, params.jitter_us)
                state = states[node]
                state.synced = True
                state.missed_beacons = 0
                residual_us = float(sum(islice(draws, wave)))
                receptions.append(new_record(BeaconReception, (node, wave, residual_us)))
            else:
                missed.append(node)
        listening = missed

    desynced: list[int] = []
    for node in listening:
        state = states[node]
        state.missed_beacons += 1
        if state.synced and state.missed_beacons >= params.miss_limit:
            state.synced = False
            desynced.append(node)
    return new_record(BeaconReport, (transmissions, outcomes, receptions, desynced))
