import pytest
from hypothesis import given, settings, strategies as st

from oracles import gap_position, hop_of, slot_offset_us, wave_scan_sync_beacon
from wctrlsim.channel import Medium
from wctrlsim.engine import Engine
from wctrlsim.mac import (BeaconReception, BeaconReport, Direction, ScheduleError,
                          SyncParams, SyncState, build_schedule, run_sync_beacon)

HOP4 = (2, 0, 3, 1)
HOP8 = (3, 6, 0, 5, 2, 7, 1, 4)
SYNC_CHANNEL = 3


def schedule_for(n_loops, retx=2, **kwargs):
    return build_schedule(0, list(range(1, n_loops + 1)), retx_slots=retx, hop_forward=HOP8,
                          hop_feedback=HOP8[::-1], **kwargs)


def test_single_loop_layout():
    # sync, FB1, gap, CMD1, RETX, RETX
    sched = schedule_for(1)
    assert [s.direction for s in sched.slots] == [
        Direction.SYNC, Direction.UPLINK, Direction.GAP, Direction.DOWNLINK,
        Direction.RETX, Direction.RETX]
    assert len(sched.slots) == 6
    assert sched.slots[1].owner == 1 and sched.slots[1].hop == HOP8[::-1]
    assert sched.slots[3].owner == 0 and sched.slots[3].hop == HOP8
    assert sched.slots[2].hop == ()


def test_two_loop_layout():
    # sync, FB1, FB2, gap, CMD1, CMD2, RETX, RETX
    sched = schedule_for(2)
    assert len(sched.slots) == 8
    assert [s.direction for s in sched.slots] == [
        Direction.SYNC, Direction.UPLINK, Direction.UPLINK, Direction.GAP,
        Direction.DOWNLINK, Direction.DOWNLINK, Direction.RETX, Direction.RETX]
    assert [s.plant for s in sched.slots[1:3]] == [1, 2]
    assert [s.plant for s in sched.slots[4:6]] == [1, 2]


def test_no_loops_is_an_error():
    with pytest.raises(ScheduleError):
        build_schedule(0, [], hop_forward=HOP8, hop_feedback=HOP8)


def test_duplicate_plant_is_an_error():
    with pytest.raises(ScheduleError):
        build_schedule(0, [1, 1], hop_forward=HOP8, hop_feedback=HOP8)


def test_controller_equals_plant_is_an_error():
    with pytest.raises(ScheduleError):
        build_schedule(1, [1], hop_forward=HOP8, hop_feedback=HOP8)


def test_non_permutation_hop_sequence_rejected():
    with pytest.raises(ScheduleError):
        build_schedule(0, [1], hop_forward=(0, 0, 1), hop_feedback=(0, 1, 2))


def test_cycle_length_values():
    assert schedule_for(1).cycle_length_us == 2000
    assert schedule_for(2).cycle_length_us == 2500


def test_slot_offsets_account_for_the_stretched_gap():
    sched = schedule_for(1)
    assert [s.offset_us for s in sched.slots] == [0, 250, 500, 1250, 1500, 1750]


def test_feedback_slot_strictly_precedes_command_slot_per_loop():
    for n in range(1, 9):
        sched = schedule_for(n)
        for plant in range(1, n + 1):
            fb = [s.position for s in sched.slots
                  if s.direction is Direction.UPLINK and s.plant == plant]
            cmd = [s.position for s in sched.slots
                   if s.direction is Direction.DOWNLINK and s.plant == plant]
            assert fb and cmd and max(fb) < min(cmd)


def test_conflict_freedom_over_loop_counts():
    for n in range(1, 9):
        sched = schedule_for(n)
        owners = [s.owner for s in sched.slots
                  if s.direction in (Direction.UPLINK, Direction.DOWNLINK)]
        uplink_owners = [s.owner for s in sched.slots if s.direction is Direction.UPLINK]
        assert len(set(uplink_owners)) == n
        positions = [s.position for s in sched.slots]
        assert positions == sorted(set(positions))
        assert sched.slots[0].direction is Direction.SYNC


def test_hop_coverage_exhaustive_over_one_period():
    sched = schedule_for(2)
    n = len(HOP8)
    for slot in sched.slots:
        if slot.direction is Direction.GAP:
            continue
        channels = [slot.hop[(c + slot.position) % n] for c in range(n)]
        assert sorted(channels) == list(range(n))


def test_bands_use_their_own_hop_sequence():
    sched = schedule_for(1)
    assert sched.slots[1].hop == HOP8[::-1]  # feedback band
    assert sched.slots[3].hop == HOP8        # forward band


@st.composite
def schedules(draw):
    """1-16 distinct plants, handed over in any order, with random slot and gap
    durations, retx counts and hop permutations."""
    n = draw(st.integers(1, 16))
    plants = draw(st.lists(st.integers(1, 254), min_size=n, max_size=n, unique=True))
    channels = draw(st.integers(1, 16))
    hops = (tuple(draw(st.permutations(range(channels)))),
            tuple(draw(st.permutations(range(channels)))))
    return build_schedule(0, plants, slot_duration_us=draw(st.integers(1, 10_000)),
                          compute_gap_us=draw(st.integers(0, 10_000)),
                          retx_slots=draw(st.integers(0, 5)),
                          hop_forward=hops[0], hop_feedback=hops[1]), hops


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_slot_offsets_and_hops_match_the_recomputed_layout(drawn):
    sched, (hop_forward, hop_feedback) = drawn
    assert sched.slots[gap_position(sched)].hop == ()
    for slot in sched.slots:
        assert slot.offset_us == slot_offset_us(sched, slot.position)
        if slot.direction is not Direction.GAP:
            assert slot.hop is hop_of(slot, hop_forward, hop_feedback)  # the very tuple handed in
    assert sched.cycle_length_us == sched.slots[-1].offset_us + sched.slot_duration_us
    for direction in (Direction.UPLINK, Direction.DOWNLINK):  # in plant-id order
        plants = [slot.plant for slot in sched.slots if slot.direction is direction]
        assert plants == sorted(plants)


# -- sync flooding -----------------------------------------------------------


def sync_setup(pers, seed=0):
    """pers: dict (sender, receiver) -> erasure probability; node 0 originates."""
    nodes = sorted({n for pair in pers for n in pair})
    engine = Engine(seed=seed)
    medium = Medium(engine, n_channels=8)
    for (a, b), per in pers.items():
        medium.add_link(a, b, per=per)
    states = {n: SyncState() for n in nodes}
    return engine, medium, states, nodes


def test_sync_perfect_links_single_wave():
    pers = {(0, 1): 0.0, (0, 2): 0.0, (1, 0): 0.0, (2, 0): 0.0, (1, 2): 0.0, (2, 1): 0.0}
    engine, medium, states, nodes = sync_setup(pers)
    params = SyncParams(jitter_us=10.0, max_waves=2, miss_limit=3)
    report = run_sync_beacon(engine, medium, SYNC_CHANNEL, 0, 0, nodes, states, params, 0)
    received = {r.node: r for r in report.receptions}
    assert set(received) == {1, 2}
    for rec in received.values():
        assert rec.wave == 1
        assert abs(rec.residual_us) <= 10.0
    assert all(states[n].synced for n in nodes)


def test_sync_second_wave_relays_through_first_receivers():
    # originator cannot reach node 2 directly; node 1 relays in wave 2
    pers = {(0, 1): 0.0, (0, 2): 1.0, (1, 2): 0.0,
            (1, 0): 0.0, (2, 0): 0.0, (2, 1): 0.0}
    engine, medium, states, nodes = sync_setup(pers)
    params = SyncParams(jitter_us=10.0, max_waves=2, miss_limit=3)
    report = run_sync_beacon(engine, medium, SYNC_CHANNEL, 0, 0, nodes, states, params, 0)
    received = {r.node: r for r in report.receptions}
    assert received[1].wave == 1
    assert received[2].wave == 2
    assert abs(received[2].residual_us) <= 2 * 10.0  # one jitter draw per wave


def test_sync_miss_limit_desyncs_and_beacon_recovers():
    pers = {(0, 1): 1.0, (1, 0): 0.0}
    engine, medium, states, nodes = sync_setup(pers)
    params = SyncParams(jitter_us=10.0, max_waves=2, miss_limit=3)
    for cycle in range(3):
        report = run_sync_beacon(engine, medium, SYNC_CHANNEL, cycle, 0, nodes, states, params,
                                 cycle * 2000)
    assert states[1].synced is False
    assert states[1].missed_beacons == 3
    assert report.desynced == [1]  # desynced exactly on the 3rd miss
    # re-open the link: next beacon recovers the node
    medium.add_link(0, 1, per=0.0)
    run_sync_beacon(engine, medium, SYNC_CHANNEL, 3, 0, nodes, states, params, 6000)
    assert states[1].synced is True
    assert states[1].missed_beacons == 0


def test_sync_desync_event_fires_exactly_at_miss_limit():
    pers = {(0, 1): 1.0, (1, 0): 0.0}
    engine, medium, states, nodes = sync_setup(pers)
    params = SyncParams(miss_limit=3)
    reports = [run_sync_beacon(engine, medium, SYNC_CHANNEL, c, 0, nodes, states, params, c * 2000)
               for c in range(4)]
    assert [r.desynced for r in reports] == [[], [], [1], []]


@st.composite
def sync_floods(draw):
    """A 2-8 node mesh with a random erasure probability per directed link,
    random starting sync states and a run of consecutive beacons."""
    n = draw(st.integers(2, 8))
    nodes = draw(st.permutations(range(n)))
    per = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)
    pers = {(a, b): draw(per) for a in range(n) for b in range(n) if a != b}
    miss_limit = draw(st.integers(1, 4))
    states = {node: (draw(st.booleans()), draw(st.integers(0, miss_limit)))
              for node in range(n)}
    params = SyncParams(jitter_us=draw(st.sampled_from([0.0, 10.0, 37.5])),
                        max_waves=draw(st.integers(1, 4)), miss_limit=miss_limit)
    return (nodes, pers, states, params, draw(st.integers(0, n - 1)),
            draw(st.integers(0, 2**16 + 3)), draw(st.integers(1, 5)), draw(st.integers(0, 99)))


@settings(max_examples=150, deadline=None)
@given(sync_floods())
def test_one_pass_flood_matches_the_wave_by_wave_scan(case):
    nodes, pers, start_states, params, originator, first_cycle, cycles, seed = case
    twins = []
    for flood in (run_sync_beacon, wave_scan_sync_beacon):
        engine = Engine(seed)
        medium = Medium(engine, n_channels=4)
        for (a, b), per in pers.items():
            medium.add_link(a, b, per=per)
        states = {node: SyncState(synced, missed)
                  for node, (synced, missed) in start_states.items()}
        reports = [flood(engine, medium, cycle % 4, cycle, originator, list(nodes), states,
                         params, cycle * 2000)
                   for cycle in range(first_cycle, first_cycle + cycles)]
        twins.append((reports, states))
    (reports, states), (expected_reports, expected_states) = twins
    for report, expected in zip(reports, expected_reports):
        assert report.transmissions == expected.transmissions
        assert report.outcomes == expected.outcomes
        assert report.receptions == expected.receptions
        assert report.desynced == expected.desynced
        assert [type(r) for r in report.receptions] == [BeaconReception] * len(report.receptions)
    assert states == expected_states


def test_beacon_records_are_immutable():
    reception = BeaconReception(1, 1, 0.5)
    report = BeaconReport([], [], [reception], [])
    for record, name in ((reception, "residual_us"), (report, "desynced")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
