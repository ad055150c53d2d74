"""Parametric packet-erasure model of the shared 2.4 GHz medium.

Each directed link carries one erasure probability per hop channel, or an
optional two-state burst model (good/bad Markov chain) that overrides the
static probabilities.  Concurrent transmissions of an identical frame combine
constructively: the flood fails only if every contributing link fails
(independent-link approximation).

The model deliberately has no SINR, capture or path-loss physics; erasures
parameterized per hop channel are what frequency hopping exploits, and the
PHY is treated as a black box.  A `Transmission` is an immutable named tuple,
one per sender and slot, built through `tuple.__new__`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, NamedTuple

from .bounds import PROBABILITY, check_bounds
from .engine import Engine, SimTime
from .frames import FRAME_SIZE, Frame, encode_frame, new_record


def frame_airtime_us(phy_overhead_bytes: int, phy_rate_mbps: float) -> int:
    """On-air time of one frame: (frame size + PHY overhead) * 8 / rate."""
    return int(round((FRAME_SIZE + phy_overhead_bytes) * 8 / phy_rate_mbps))


class ChannelError(ValueError):
    """Scenario misconfiguration: missing or invalid link model."""


class ProtocolViolation(RuntimeError):
    """A flood was attempted with non-identical frames; surfaced, not modeled."""


class Cause:
    """Reception causes, as written in the cause column of `rx` rows."""

    DELIVERED = "delivered"
    ERASED = "erased"
    NO_TRANSMITTER = "no-transmitter"
    DESYNCED_LISTENER = "desynced-listener"


@dataclass(frozen=True)
class BurstModel:
    """Two-state (good/bad) erasure chain advanced once per slot."""

    p_good_to_bad: float = field(metadata=PROBABILITY)
    p_bad_to_good: float = field(metadata=PROBABILITY)
    per_good: float = field(metadata=PROBABILITY)
    per_bad: float = field(metadata=PROBABILITY)


@dataclass
class RadioLink:
    """Directed link model with per-channel erasure probabilities and burst state;
    a receiver keeps its links by sender."""

    per_by_channel: tuple[float, ...]
    burst: BurstModel | None = None
    bad: bool = False
    _slot_cursor: int = field(default=0, repr=False)  # burst links only
    _draws: Iterator[float] | None = field(default=None, repr=False, compare=False)


class Transmission(NamedTuple):
    """One frame on the air during one slot."""

    sender: int
    frame: Frame
    payload: bytes
    slot: int  # global slot counter, for burst-state bookkeeping
    channel: int
    start: SimTime


@dataclass(frozen=True)
class ReceptionOutcome:
    receiver: int
    received: bool
    cause: str  # a Cause value


@dataclass(slots=True)
class _Receiver:
    """One listening node: links by sender, blackouts, draws, shared outcomes."""

    links: dict[int, RadioLink]
    blackouts: list[tuple[SimTime, SimTime]]
    draws: Iterator[float]
    delivered: ReceptionOutcome
    erased: ReceptionOutcome


class Medium:
    """The shared radio medium: link registry, blackout windows, delivery draws.

    Delivery draws come from the receiver's "channel" RNG stream, so adding a
    node never perturbs another node's outcomes.  Burst chains advance lazily,
    one step per elapsed slot, from a per-link stream.  Both streams are
    buffered (`Engine.draws`) and drawn only here.
    """

    def __init__(self, engine: Engine, n_channels: int, phy_overhead_bytes: int = 10,
                 phy_rate_mbps: float = 2.0):
        self.engine = engine
        self.n_channels = n_channels
        self.airtime_us = frame_airtime_us(phy_overhead_bytes, phy_rate_mbps)
        self._receivers: dict[int, _Receiver] = {}
        self._slot_counter = 0
        self._encoded: tuple[Frame | None, bytes] = (None, b"")
        self._flood: tuple[tuple[Transmission, ...], list[Transmission]] = ((), [])

    def _receiver(self, node: int) -> _Receiver:
        rx = self._receivers.get(node)
        if rx is None:
            rx = self._receivers[node] = _Receiver(
                {}, [], self.engine.draws(node, "channel"),
                ReceptionOutcome(node, True, Cause.DELIVERED),
                ReceptionOutcome(node, False, Cause.ERASED))
        return rx

    def add_link(self, sender: int, receiver: int, per: float | None = None,
                 per_by_channel: list[float] | tuple[float, ...] | None = None,
                 burst: BurstModel | None = None) -> RadioLink:
        if sender == receiver:
            raise ChannelError(f"self-link {sender}->{receiver}")
        if per_by_channel is None:
            per_by_channel = (0.0 if per is None else float(per),) * self.n_channels
        if len(per_by_channel) != self.n_channels:  # a shorter table fails at a later send
            raise ChannelError(f"link {sender}->{receiver} has {len(per_by_channel)} "
                               f"per-channel probabilities, expected {self.n_channels}")
        link = RadioLink(tuple(map(float, per_by_channel)), burst)
        if burst is not None:
            check_bounds(burst, "burst")
            link._draws = self.engine.draws(receiver, f"burst:{sender}")
        self._receiver(receiver).links[sender] = link
        return link

    def add_links(self, nodes: list[int], per: float) -> None:
        """Link every ordered pair of distinct `nodes` that has no link yet, with
        erasure probability `per` on every channel: the links of one
        `add_link(sender, receiver, per=per)` per pair, from one tuple."""
        per_by_channel = (float(per),) * self.n_channels
        for receiver in nodes:
            links = self._receiver(receiver).links
            for sender in nodes:
                if sender != receiver and sender not in links:
                    links[sender] = RadioLink(per_by_channel)

    def add_blackout(self, node: int, start_us: SimTime, end_us: SimTime) -> None:
        """Force every reception at `node` to fail for start_us <= t < end_us."""
        self._receiver(node).blackouts.append((start_us, end_us))

    def in_blackout(self, node: int, at: SimTime) -> bool:
        rx = self._receivers.get(node)
        return rx is not None and any(start <= at < end for start, end in rx.blackouts)

    def begin_slot(self) -> int:
        """Advance the global slot counter; burst chains catch up lazily."""
        self._slot_counter += 1
        return self._slot_counter

    def make_transmission(self, sender: int, frame: Frame, slot: int, channel: int,
                          start: SimTime) -> Transmission:
        # frames are immutable: the senders of one flood share one encoding
        encoded_frame, payload = self._encoded
        if frame is not encoded_frame:
            payload = encode_frame(frame)
            self._encoded = (frame, payload)
        return new_record(Transmission, (sender, frame, payload, slot, channel, start))

    def _burst_prob(self, link: RadioLink, slot: int) -> float:
        """Erasure probability of a burst link in `slot`: its chain first steps
        once per slot elapsed since it last carried a frame."""
        burst = link.burst
        steps = slot - link._slot_cursor
        if steps > 0:
            draws = link._draws
            for _ in range(steps):
                u = next(draws)
                if link.bad:
                    if u < burst.p_bad_to_good:
                        link.bad = False
                elif u < burst.p_good_to_bad:
                    link.bad = True
            link._slot_cursor = slot
        return burst.per_bad if link.bad else burst.per_good

    def deliver(self, tx: Transmission, receiver: int) -> ReceptionOutcome:
        """Draw the reception outcome of a single transmission at `receiver`."""
        try:
            rx = self._receivers[receiver]
            link = rx.links[tx.sender]
        except KeyError:
            raise ChannelError(f"no link model for {tx.sender}->{receiver}") from None
        if rx.blackouts and self.in_blackout(receiver, tx.start):
            return rx.erased
        p = (link.per_by_channel[tx.channel] if link.burst is None
             else self._burst_prob(link, tx.slot))
        return rx.delivered if next(rx.draws) >= p else rx.erased

    def _flood_order(self, txs: list[Transmission]) -> list[Transmission]:
        """Check that `txs` form one flood; return them in sender order.  Kept for
        the next call, since every listener of a send gets the same list."""
        if len(txs) == 1:
            return txs
        if not txs:
            raise ChannelError("flood needs at least one transmission")
        key = tuple(txs)
        seen, order = self._flood
        if key != seen:
            head = txs[0]
            for tx in txs[1:]:
                if tx.payload != head.payload:
                    raise ProtocolViolation(
                        f"flood with non-identical frames from {head.sender} and {tx.sender}"
                    )
                if tx.channel != head.channel or tx.slot != head.slot:
                    raise ProtocolViolation("flood transmissions must share slot and channel")
            order = sorted(key, key=attrgetter("sender"))
            self._flood = (key, order)
        return order

    def deliver_flood(self, txs: list[Transmission], receiver: int) -> ReceptionOutcome:
        """Reception of simultaneous identical transmissions: fails only if all links fail."""
        order = self._flood_order(txs)
        rx = self._receivers.get(receiver)
        if rx is None:
            raise ChannelError(f"no link model for {order[0].sender}->{receiver}")
        if rx.blackouts and self.in_blackout(receiver, txs[0].start):
            return rx.erased
        fail = 1.0
        for tx in order:
            link = rx.links.get(tx.sender)
            if link is None:
                raise ChannelError(f"no link model for {tx.sender}->{receiver}")
            fail *= (link.per_by_channel[tx.channel] if link.burst is None
                     else self._burst_prob(link, tx.slot))
        return rx.delivered if next(rx.draws) >= fail else rx.erased
