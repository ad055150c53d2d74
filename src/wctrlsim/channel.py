"""Parametric packet-erasure model of the shared 2.4 GHz medium.

Each directed link carries one erasure probability per hop channel, or an
optional two-state burst model (good/bad Markov chain) that overrides the
static probabilities.  Concurrent transmissions of an identical frame combine
constructively: the flood fails only if every contributing link fails
(independent-link approximation).

The model deliberately has no SINR, capture or path-loss physics; erasures
parameterized per hop channel are what frequency hopping exploits, and the
PHY is treated as a black box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .engine import Engine, SimTime
from .frames import FRAME_SIZE, Frame, encode_frame


def frame_airtime_us(phy_overhead_bytes: int, phy_rate_mbps: float) -> int:
    """On-air time of one frame: (frame size + PHY overhead) * 8 / rate."""
    return int(round((FRAME_SIZE + phy_overhead_bytes) * 8 / phy_rate_mbps))


class ChannelError(ValueError):
    """Scenario misconfiguration: missing or invalid link model."""


class ProtocolViolation(RuntimeError):
    """A flood was attempted with non-identical frames; surfaced, not modeled."""


class Cause(str, Enum):
    DELIVERED = "delivered"
    ERASED = "erased"
    NO_TRANSMITTER = "no-transmitter"
    DESYNCED_LISTENER = "desynced-listener"


@dataclass(frozen=True)
class BurstModel:
    """Two-state (good/bad) erasure chain advanced once per slot."""

    p_good_to_bad: float
    p_bad_to_good: float
    per_good: float
    per_bad: float

    def validate(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "per_good", "per_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChannelError(f"burst parameter {name}={value} outside [0, 1]")


@dataclass
class RadioLink:
    """Directed link model with per-channel erasure probabilities and burst state."""

    sender: int
    receiver: int
    per_by_channel: tuple[float, ...]
    burst: BurstModel | None = None
    bad: bool = False
    _slot_cursor: int = field(default=0, repr=False)

    def validate(self, n_channels: int) -> None:
        if len(self.per_by_channel) != n_channels:
            raise ChannelError(
                f"link {self.sender}->{self.receiver} has {len(self.per_by_channel)} "
                f"per-channel probabilities, expected {n_channels}"
            )
        for p in self.per_by_channel:
            if not 0.0 <= p <= 1.0:
                raise ChannelError(f"erasure probability {p} outside [0, 1]")
        if self.burst is not None:
            self.burst.validate()

    def erasure_prob(self, channel: int) -> float:
        if self.burst is not None:
            return self.burst.per_bad if self.bad else self.burst.per_good
        return self.per_by_channel[channel]


@dataclass(frozen=True)
class Transmission:
    """One frame on the air during one slot."""

    sender: int
    frame: Frame
    payload: bytes
    slot: int  # global slot counter, for burst-state bookkeeping
    channel: int
    start: SimTime
    airtime_us: int


@dataclass(frozen=True)
class ReceptionOutcome:
    receiver: int
    received: bool
    cause: Cause


class Medium:
    """The shared radio medium: link registry, blackout windows, delivery draws.

    Delivery draws come from the receiver's "channel" RNG stream, so adding a
    node never perturbs another node's outcomes.  Burst chains advance lazily,
    one step per elapsed slot, from a per-link stream.
    """

    def __init__(self, engine: Engine, n_channels: int, phy_overhead_bytes: int = 10,
                 phy_rate_mbps: float = 2.0):
        if n_channels < 1:
            raise ChannelError("need at least one hop channel")
        self.engine = engine
        self.n_channels = n_channels
        self.airtime_us = frame_airtime_us(phy_overhead_bytes, phy_rate_mbps)
        self._links: dict[tuple[int, int], RadioLink] = {}
        self._blackouts: dict[int, list[tuple[SimTime, SimTime]]] = {}
        self._slot_counter = 0

    def add_link(self, sender: int, receiver: int, per: float | None = None,
                 per_by_channel: list[float] | tuple[float, ...] | None = None,
                 burst: BurstModel | None = None) -> RadioLink:
        if sender == receiver:
            raise ChannelError(f"self-link {sender}->{receiver}")
        if per_by_channel is None:
            per_by_channel = (0.0 if per is None else float(per),) * self.n_channels
        link = RadioLink(sender=sender, receiver=receiver,
                         per_by_channel=tuple(float(p) for p in per_by_channel),
                         burst=burst)
        link.validate(self.n_channels)
        self._links[(sender, receiver)] = link
        return link

    def link(self, sender: int, receiver: int) -> RadioLink:
        link = self._links.get((sender, receiver))
        if link is None:
            raise ChannelError(f"no link model for {sender}->{receiver}")
        return link

    def add_blackout(self, node: int, start_us: SimTime, end_us: SimTime) -> None:
        """Force every reception at `node` to fail for start_us <= t < end_us."""
        self._blackouts.setdefault(node, []).append((start_us, end_us))

    def in_blackout(self, node: int, at: SimTime) -> bool:
        for start, end in self._blackouts.get(node, ()):
            if start <= at < end:
                return True
        return False

    def begin_slot(self) -> int:
        """Advance the global slot counter; burst chains catch up lazily."""
        self._slot_counter += 1
        return self._slot_counter

    def make_transmission(self, sender: int, frame: Frame, slot: int, channel: int,
                          start: SimTime) -> Transmission:
        return Transmission(sender=sender, frame=frame, payload=encode_frame(frame),
                            slot=slot, channel=channel, start=start,
                            airtime_us=self.airtime_us)

    def _advance_burst(self, link: RadioLink, slot: int) -> None:
        if link.burst is None:
            link._slot_cursor = slot
            return
        steps = slot - link._slot_cursor
        if steps <= 0:
            return
        rng = self.engine.stream(link.receiver, f"burst:{link.sender}")
        burst = link.burst
        for _ in range(steps):
            u = rng.random()
            if link.bad:
                if u < burst.p_bad_to_good:
                    link.bad = False
            elif u < burst.p_good_to_bad:
                link.bad = True
        link._slot_cursor = slot

    def deliver(self, tx: Transmission, receiver: int) -> ReceptionOutcome:
        """Draw the reception outcome of a single transmission at `receiver`."""
        link = self.link(tx.sender, receiver)
        if self.in_blackout(receiver, tx.start):
            return ReceptionOutcome(receiver, False, Cause.ERASED)
        self._advance_burst(link, tx.slot)
        p = link.erasure_prob(tx.channel)
        received = self.engine.stream(receiver, "channel").random() >= p
        return ReceptionOutcome(receiver, received,
                                Cause.DELIVERED if received else Cause.ERASED)

    def deliver_flood(self, txs: list[Transmission], receiver: int) -> ReceptionOutcome:
        """Reception of simultaneous identical transmissions: fails only if all links fail."""
        if not txs:
            raise ChannelError("flood needs at least one transmission")
        head = txs[0]
        for tx in txs[1:]:
            if tx.payload != head.payload:
                raise ProtocolViolation(
                    f"flood with non-identical frames from {head.sender} and {tx.sender}"
                )
            if tx.channel != head.channel or tx.slot != head.slot:
                raise ProtocolViolation("flood transmissions must share slot and channel")
        if self.in_blackout(receiver, head.start):
            return ReceptionOutcome(receiver, False, Cause.ERASED)
        fail = 1.0
        for tx in sorted(txs, key=lambda t: t.sender):
            link = self.link(tx.sender, receiver)
            self._advance_burst(link, tx.slot)
            fail *= link.erasure_prob(tx.channel)
        received = self.engine.stream(receiver, "channel").random() >= fail
        return ReceptionOutcome(receiver, received,
                                Cause.DELIVERED if received else Cause.ERASED)
