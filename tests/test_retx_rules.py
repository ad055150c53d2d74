"""The per-cycle executor's retransmission rules, checked on every erasure pattern.

`Medium.deliver` and `Medium.deliver_flood` are replaced by a scripted outcome
source, and one cycle of a real `Simulation` runs once per erasure pattern: a
depth-first search over the data-slot draws the cycle actually makes, which
branches only where a draw's erasure probability lies strictly between 0 and
1.  Each pattern is weighted exactly with `fractions.Fraction` from the link
PERs, so delivery probabilities are compared with their closed forms by
equality, not by sampling (small-scope exhaustive testing; Jackson, *Software
Abstractions*, 2006).

On every pattern the trace must show that:
- a command is applied only in its primary slot, or in a retx slot where it
  headed the queue, and every delivery to its robot applies it;
- no command is applied twice;
- commands outrank feedback, and lower robot ids go first;
- the senders of a retx flood are exactly the synced nodes that already held
  the frame;
- once the controller has latched an emergency stop, every retx slot carries
  the ESTOP frame, sent by the controller and every node that received an
  earlier ESTOP flood that cycle;
- a flagged stop command that arrives is applied with cause `estop`, and no
  robot latches its stop twice.
"""

from collections import defaultdict
from fractions import Fraction
from math import prod

from wctrlsim.channel import Cause, Medium, ReceptionOutcome
from wctrlsim.frames import SyncFrame
from wctrlsim.mac import Direction
from wctrlsim.scenario import config_from_dict
from wctrlsim.simulation import Simulation

TIME, CYCLE, SLOT, NODE, KIND, FRAME, SRC, DST, SEQ, CAUSE = range(10)


class ScriptedErasures:
    """Stands in for the medium's delivery draws during one cycle.

    Sync frames always arrive, except at the `deaf` nodes.  A data-slot draw at
    erasure probability p (for a flood, the product over its senders) always
    delivers at p = 0 and never at p = 1; otherwise it takes the next scripted
    outcome, or delivers once the script has run out.
    """

    def __init__(self, pers: dict[tuple[int, int], Fraction], script: list[bool],
                 deaf: frozenset[int] = frozenset()):
        self.pers = pers
        self.script = script
        self.deaf = deaf
        self.taken: list[bool] = []  # the outcome of each uncertain draw, in order
        self.weight = Fraction(1)

    # set on the class as bound methods of this source, so they take no medium
    def deliver(self, tx, receiver):
        return self._draw([tx.sender], receiver)

    def deliver_flood(self, txs, receiver):
        if isinstance(txs[0].frame, SyncFrame):
            return self._outcome(receiver, receiver not in self.deaf)
        return self._draw([tx.sender for tx in txs], receiver)

    def _draw(self, senders, receiver):
        p = prod(self.pers[(sender, receiver)] for sender in senders)
        if 0 < p < 1:
            step = len(self.taken)
            received = self.script[step] if step < len(self.script) else True
            self.taken.append(received)
            self.weight *= 1 - p if received else p
        else:
            received = p == 0
        return self._outcome(receiver, received)

    @staticmethod
    def _outcome(receiver, received):
        return ReceptionOutcome(receiver, received,
                                Cause.DELIVERED if received else Cause.ERASED)


def one_cycle_config(robots, pers, relays=(), obstacles=()):
    """A remote-control run of exactly one cycle: R = 2, one loop per robot."""
    n_slots = 2 * len(robots) + 4  # sync, FB and CMD per loop, the gap, two retx
    return config_from_dict({
        "kind": "remote-control", "seed": 1,
        "duration_s": (n_slots * 250 + 500) / 1e6,
        "nodes": [{"id": 0, "role": "controller"}]
                 + [{"id": r, "role": "robot", "start_pose": [0.0, float(r), 0.0],
                     "path": [[5.0, float(r)]]} for r in robots]
                 + [{"id": r, "role": "relay"} for r in relays],
        "protocol": {"slot_duration_us": 250, "compute_gap_us": 500, "retx_slots": 2},
        "channel": {"default_per": 0.0,
                    "links": [{"from": a, "to": b, "per": float(p)}
                              for (a, b), p in pers.items()]},
        "obstacles": [{"segment": list(segment)} for segment in obstacles],
        "run_to_completion": False,
    })


def erasure_patterns(monkeypatch, config, pers, desynced=frozenset(), end_reason="timeout"):
    """Run the one-cycle `config` once per erasure pattern; yield (weight, run).

    Each run takes a script prefix and delivers past it, so every outcome it
    draws past the prefix starts a sibling pattern that erases there instead.
    The `desynced` nodes start out of sync and never hear the beacon.  Every
    run ends after its one cycle with `end_reason`.
    """
    stack: list[list[bool]] = [[]]
    while stack:
        script = stack.pop()
        source = ScriptedErasures(pers, script, desynced)
        monkeypatch.setattr(Medium, "deliver", source.deliver)
        monkeypatch.setattr(Medium, "deliver_flood", source.deliver_flood)
        sim = Simulation(config)
        for node in desynced:
            sim.sync_states[node].synced = False
        result = sim.run()
        assert result.end_reason == end_reason
        assert result.end_time_us == sim.schedule.cycle_length_us
        yield source.weight, sim
        stack.extend(source.taken[:i] + [False] for i in range(len(script), len(source.taken)))


def check_retx_rules(sim):
    """Assert the rules in the module docstring on one cycle's trace; return
    the robots whose command was applied over the radio."""
    synced = {node for node, state in sim.sync_states.items() if state.synced}
    rows_in = defaultdict(list)
    for row in sim.trace:
        rows_in[row[SLOT]].append(row)
    flagged = {(r[DST], r[SEQ]) for r in sim.trace
               if r[KIND] == "cmd-emit" and r[CAUSE] == "estop"}
    latched_at = min((r[TIME] for r in sim.trace
                      if r[KIND] == "estop" and r[CAUSE] == "controller-latch"), default=None)

    def priority(frame):
        name, src, dst, _ = frame
        return (0, dst) if name == "CMD" else (1, src)

    pending: dict[tuple, set[int]] = {}     # frame -> nodes holding it
    stop_holders = {sim.controller_node}  # nodes holding the ESTOP frame
    applied: dict[int, int] = {}            # robot -> seq of its applied command
    for slot in sim.schedule.slots:
        if slot.direction not in (Direction.UPLINK, Direction.DOWNLINK, Direction.RETX):
            continue
        rows = rows_in[slot.position]
        txs = [r for r in rows if r[KIND] == "tx"]
        frames = {(r[FRAME], r[SRC], r[DST], r[SEQ]) for r in txs}
        senders = {r[NODE] for r in txs}
        assert len(frames) <= 1
        frame = next(iter(frames), None)
        received = {r[NODE] for r in rows if r[KIND] == "rx" and r[CAUSE] == Cause.DELIVERED}
        assert not received & senders
        applies = [r for r in rows if r[KIND] == "cmd-apply"]
        if slot.direction in (Direction.UPLINK, Direction.DOWNLINK):
            if frame is None:
                continue
            assert senders == {slot.owner}
            assert priority(frame)[1] == slot.plant
            holders = set(senders)
        elif slot.direction is Direction.RETX and latched_at is not None:
            assert latched_at < slot.offset_us
            assert frame is not None and frame[0] == "ESTOP", \
                "once latched, the stop takes every retx slot"
            assert senders == stop_holders
            stop_holders |= received
            assert not applies
            continue
        else:
            head = min(pending, key=priority) if pending else None
            holders = pending.get(head, set())
            if not holders & synced:
                assert frame is None
                continue
            assert frame == head, "a retx slot carries the head of the queue"
            assert senders == holders & synced
        name, _, dest, seq = frame
        holders |= received
        if dest in received:
            pending.pop(frame, None)
        else:
            pending[frame] = holders

        if name == "CMD" and dest in received:
            cause = "estop" if (dest, seq) in flagged else "applied"
            assert [(r[NODE], r[SEQ], r[CAUSE]) for r in applies] == [(dest, seq, cause)]
            assert dest not in applied, "a command is applied at most once"
            applied[dest] = seq
        else:
            assert not applies
    # anything applied outside a slot that carried it would have been missed above
    radio_applies = [r for r in sim.trace if r[KIND] == "cmd-apply"]
    assert len(radio_applies) == len(applied)
    return set(applied)


def plant_latches(sim):
    """Check the retx rules; return the robots that latched their stop."""
    check_retx_rules(sim)
    latched = [r[NODE] for r in sim.trace if r[KIND] == "estop" and r[CAUSE] == "plant-latch"]
    assert len(latched) == len(set(latched)), "a robot latches its stop once"
    return set(latched)


def delivery_probabilities(monkeypatch, config, pers, desynced=frozenset(),
                           end_reason="timeout", reached=check_retx_rules):
    """P(robot in `reached(run)`) per robot over every erasure pattern, exactly;
    by default, that its command was applied."""
    total = Fraction(0)
    delivered: dict[int, Fraction] = defaultdict(Fraction)
    for weight, sim in erasure_patterns(monkeypatch, config, pers, desynced, end_reason):
        total += weight
        for robot in reached(sim):
            delivered[robot] += weight
    assert total == 1, "the patterns cover the whole probability space"
    return dict(delivered)


def one_loop_pers(p):
    return {(0, 1): p, (1, 0): p}


def test_one_loop_delivers_with_probability_one_minus_p_cubed(monkeypatch):
    for p, expect in ((Fraction(1, 10), Fraction(999, 1000)),
                      (Fraction(3, 10), Fraction(973, 1000))):
        pers = one_loop_pers(p)
        got = delivery_probabilities(monkeypatch, one_cycle_config([1], pers), pers)
        assert got == {1: expect} and expect == 1 - p ** 3


# Direct link 0->1 at PER 1/2; the relay hears the controller at 3/10 and reaches
# the robot at 2/5.  Conditioning on the attempt the relay first overhears (it
# joins the floods after it):
#   hears the primary (7/10):         fail = 1/2 * (1/2 * 2/5)^2  = 1/50
#   hears the 1st retx (3/10 * 7/10): fail = 1/2 * 1/2 * 1/5      = 1/20
#   hears later or never (9/100):     fail = (1/2)^3              = 1/8
# P(fail) = 7/10 * 1/50 + 21/100 * 1/20 + 9/100 * 1/8 = 143/4000 = 0.03575
RELAY_PERS = {(0, 1): Fraction(1, 2), (0, 2): Fraction(3, 10), (2, 1): Fraction(2, 5),
              (1, 0): Fraction(0), (1, 2): Fraction(0), (2, 0): Fraction(0)}


def test_a_relay_that_overhears_joins_the_retx_floods(monkeypatch):
    config = one_cycle_config([1], RELAY_PERS, relays=[2])
    assert delivery_probabilities(monkeypatch, config, RELAY_PERS) == {1: Fraction(3857, 4000)}


def test_a_desynced_relay_never_transmits(monkeypatch):
    config = one_cycle_config([1], RELAY_PERS, relays=[2])
    got = delivery_probabilities(monkeypatch, config, RELAY_PERS, desynced=frozenset({2}))
    assert got == {1: 1 - Fraction(1, 2) ** 3}


def test_two_loops_share_the_retx_slots_in_priority_order(monkeypatch):
    # robots overhear each other's commands but never reach each other, so an
    # overheard command adds a sender whose link to the robot fails surely
    q = Fraction(3, 10)
    pers = {(0, 1): q, (1, 0): q, (0, 2): q, (2, 0): q,
            (1, 2): Fraction(1), (2, 1): Fraction(1)}
    got = delivery_probabilities(monkeypatch, one_cycle_config([1, 2], pers), pers)
    # loop 0 heads the queue whenever it is pending; loop 1 gets both retx
    # slots if loop 0 arrives at once, the second one if loop 0 arrives in the
    # first, and none otherwise
    loop_1 = (1 - q) + q * ((1 - q) * (1 - q ** 2) + q * (1 - q) * (1 - q))
    assert got == {1: 1 - q ** 3, 2: loop_1}
    assert loop_1 == Fraction(1169, 1250)


# 100 mm ahead of robot 1 from t = 0, below the 150 mm threshold: link 1->0 never
# erases, so the controller latches at compute and every run ends `estopped`
OBSTACLE = (0.1, 0.5, 0.1, 1.5)


def stop_latch_probabilities(monkeypatch, pers, relays=()):
    config = one_cycle_config([1], pers, relays=relays, obstacles=[OBSTACLE])
    return delivery_probabilities(monkeypatch, config, pers, end_reason="estopped",
                                  reached=plant_latches)


def test_the_estop_flood_takes_every_retx_slot(monkeypatch):
    # the flagged command or either stop flood reaches the robot
    for p, expect in ((Fraction(1, 10), Fraction(999, 1000)),
                      (Fraction(3, 10), Fraction(973, 1000))):
        got = stop_latch_probabilities(monkeypatch, {(0, 1): p, (1, 0): Fraction(0)})
        assert got == {1: expect} and expect == 1 - p ** 3


def test_a_relay_joins_the_estop_flood_only_after_hearing_it(monkeypatch):
    # overhearing the flagged command does not make the relay a holder; it
    # fails to join only if it misses the first flood (3/10), after which the
    # second flood is the controller's alone:
    #   P(fail) = 1/2 * 1/2 * (7/10 * 1/5 + 3/10 * 1/2) = 29/400
    got = stop_latch_probabilities(monkeypatch, RELAY_PERS, relays=[2])
    assert got == {1: Fraction(371, 400)}
