import math

import pytest
from hypothesis import given, strategies as st

from wctrlsim.bounds import ConfigError, check_bounds
from wctrlsim.channel import BurstModel, ChannelError, Medium, ProtocolViolation
from wctrlsim.engine import DRAW_BLOCK, Engine, stream_rng
from wctrlsim.frames import CmdFrame
from wctrlsim.scenario import ChannelConfig, LinkSpec


def make_medium(seed=0, n_channels=1, nodes=(0, 1), per=0.0, **link_kwargs):
    engine = Engine(seed=seed)
    medium = Medium(engine, n_channels=n_channels)
    for a in nodes:
        for b in nodes:
            if a != b:
                medium.add_link(a, b, per=per, **link_kwargs)
    return engine, medium


def tx_of(medium, sender=0, channel=0, frame=None, start=0):
    frame = frame or CmdFrame(src=sender, dst=1, seq=1, left_mms=0, right_mms=0)
    return medium.make_transmission(sender, frame, medium.begin_slot(), channel, start)


def test_transmissions_are_immutable():
    _, medium = make_medium()
    tx = tx_of(medium)
    with pytest.raises(AttributeError):
        tx.payload = b""


def test_airtime_default_is_104_us():
    # (16 payload + 10 PHY overhead) bytes * 8 bits / 2 Mbps
    _, medium = make_medium()
    assert medium.airtime_us == 104


def test_per_zero_always_delivers():
    _, medium = make_medium(per=0.0)
    assert all(medium.deliver(tx_of(medium), 1).received for _ in range(1000))


def test_per_one_never_delivers():
    _, medium = make_medium(per=1.0)
    outcomes = [medium.deliver(tx_of(medium), 1) for _ in range(1000)]
    assert not any(o.received for o in outcomes)
    assert {o.cause for o in outcomes} == {"erased"}


@pytest.mark.parametrize("per", [0.05, 0.1, 0.3])
def test_empirical_delivery_ratio_matches_binomial(per):
    _, medium = make_medium(seed=5, per=per)
    n = 100_000
    delivered = sum(medium.deliver(tx_of(medium), 1).received for _ in range(n))
    expect = 1.0 - per
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(delivered / n - expect) <= 3 * sigma


def test_missing_link_model_is_an_error():
    engine = Engine(seed=0)
    medium = Medium(engine, n_channels=1)
    medium.add_link(0, 1, per=0.0)
    tx = tx_of(medium)
    with pytest.raises(ChannelError):
        medium.deliver(tx, 5)


def test_invalid_probability_rejected():
    # a config declares its erasure probabilities in [0, 1]; the medium checks
    # only that a table holds one probability per channel
    with pytest.raises(ConfigError, match=r"^channel\.default_per: must be <= 1\.0, got 1\.5$"):
        check_bounds(ChannelConfig(default_per=1.5), "channel")
    with pytest.raises(ConfigError, match=r"^per_by_channel\[1\]: must be >= 0\.0, got -0\.3$"):
        check_bounds(LinkSpec(0, 1, per_by_channel=(0.2, -0.3)))
    with pytest.raises(ChannelError):
        Medium(Engine(seed=0), n_channels=1).add_link(0, 1, per_by_channel=[0.2, 0.3])


def test_add_links_fills_only_the_missing_pairs():
    medium = Medium(Engine(seed=0), n_channels=2)
    medium.add_link(2, 0, per=1.0)
    medium.add_links([0, 1, 2], 0.0)
    for sender, receiver in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 1)]:
        for channel in (0, 1):
            assert medium.deliver(tx_of(medium, sender, channel), receiver).received
    assert not medium.deliver(tx_of(medium, 2, 1), 0).received  # the explicit link stays
    with pytest.raises(ChannelError):
        medium.deliver(tx_of(medium, 1), 1)  # no self-link


def test_flood_single_sender_reduces_to_deliver():
    _, medium = make_medium(seed=9, per=0.0)
    tx = tx_of(medium)
    assert medium.deliver_flood([tx], 1).received


def test_flood_two_senders_half_loss_gives_three_quarters():
    engine = Engine(seed=2)
    medium = Medium(engine, n_channels=1)
    medium.add_link(0, 2, per=0.5)
    medium.add_link(1, 2, per=0.5)
    frame = CmdFrame(src=0, dst=2, seq=1, left_mms=0, right_mms=0)
    n = 100_000
    delivered = 0
    for _ in range(n):
        slot = medium.begin_slot()
        txs = [medium.make_transmission(s, frame, slot, 0, 0) for s in (0, 1)]
        delivered += medium.deliver_flood(txs, 2).received
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(delivered / n - 0.75) <= 3 * sigma


def test_flood_with_perfect_link_always_delivers():
    engine = Engine(seed=3)
    medium = Medium(engine, n_channels=1)
    medium.add_link(0, 2, per=1.0)
    medium.add_link(1, 2, per=0.0)
    frame = CmdFrame(src=0, dst=2, seq=1, left_mms=0, right_mms=0)
    for _ in range(500):
        slot = medium.begin_slot()
        txs = [medium.make_transmission(s, frame, slot, 0, 0) for s in (0, 1)]
        assert medium.deliver_flood(txs, 2).received


def test_flood_rejects_non_identical_frames():
    engine = Engine(seed=0)
    medium = Medium(engine, n_channels=1)
    medium.add_link(0, 2, per=0.0)
    medium.add_link(1, 2, per=0.0)
    slot = medium.begin_slot()
    tx_a = medium.make_transmission(0, CmdFrame(src=0, dst=2, seq=1, left_mms=0, right_mms=0),
                                    slot, 0, 0)
    tx_b = medium.make_transmission(1, CmdFrame(src=1, dst=2, seq=1, left_mms=0, right_mms=0),
                                    slot, 0, 0)
    with pytest.raises(ProtocolViolation):
        medium.deliver_flood([tx_a, tx_b], 2)


def test_flood_rejects_empty_set():
    _, medium = make_medium()
    with pytest.raises(ChannelError):
        medium.deliver_flood([], 1)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.floats(0.0, 1.0))
def test_flood_monotonicity_closed_form(pers, extra):
    # adding a sender multiplies the failure product by a factor <= 1
    fail_before = math.prod(pers)
    fail_after = fail_before * extra
    assert 1 - fail_after >= 1 - fail_before - 1e-12


def test_per_channel_probabilities_are_respected():
    pers = [0.0, 0.2, 0.5, 0.9]
    _, medium = make_medium(seed=13, n_channels=4, per_by_channel=pers, per=None)
    n = 40_000
    for channel, per in enumerate(pers):
        delivered = sum(medium.deliver(tx_of(medium, channel=channel), 1).received
                        for _ in range(n))
        expect = 1.0 - per
        sigma = math.sqrt(max(expect * (1 - expect), 1e-12) / n)
        assert abs(delivered / n - expect) <= max(3 * sigma, 1e-9)


def test_burst_model_occupancy():
    # per_good=0, per_bad=1: delivery ratio equals the good-state occupancy
    # pi_good = p_b2g / (p_g2b + p_b2g) = 0.3 / 0.4 = 0.75.  Consecutive slots
    # are correlated (decay factor 1 - 0.1 - 0.3 = 0.6), inflating the variance
    # by about (1+0.6)/(1-0.6) = 4, so the tolerance is 3 * 2 * binomial sigma.
    engine = Engine(seed=21)
    medium = Medium(engine, n_channels=1)
    burst = BurstModel(p_good_to_bad=0.1, p_bad_to_good=0.3, per_good=0.0, per_bad=1.0)
    medium.add_link(0, 1, per=0.0, burst=burst)
    n = 200_000
    delivered = sum(medium.deliver(tx_of(medium), 1).received for _ in range(n))
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(delivered / n - 0.75) <= 6 * sigma


def test_burst_parameters_validated():
    burst = BurstModel(p_good_to_bad=1.2, p_bad_to_good=0.1, per_good=0.0, per_bad=1.0)
    with pytest.raises(ConfigError, match=r"^burst\.p_good_to_bad: must be <= 1\.0, got 1\.2$"):
        Medium(Engine(seed=0), n_channels=1).add_link(0, 1, burst=burst)


def test_blackout_forces_erasure():
    _, medium = make_medium(per=0.0)
    medium.add_blackout(1, 100, 200)
    assert not medium.deliver(tx_of(medium, start=150), 1).received
    assert medium.deliver(tx_of(medium, start=200), 1).received
    assert medium.deliver(tx_of(medium, start=99), 1).received


def test_deliveries_are_reproducible_for_same_seed():
    _, medium_a = make_medium(seed=33, per=0.4)
    _, medium_b = make_medium(seed=33, per=0.4)
    seq_a = [medium_a.deliver(tx_of(medium_a), 1).received for _ in range(200)]
    seq_b = [medium_b.deliver(tx_of(medium_b), 1).received for _ in range(200)]
    assert seq_a == seq_b


def test_buffered_draws_equal_single_draws_across_refills():
    # receiver 2 hears a plain link from 0 and a burst link from 1; each round
    # is a single send on each link and then a flood of both.  The reference
    # replays the same rules on one stream_rng().random() call per draw.
    seed, rounds = 17, 2 * DRAW_BLOCK
    burst = BurstModel(p_good_to_bad=0.05, p_bad_to_good=0.3, per_good=0.1, per_bad=0.8)
    engine = Engine(seed)
    medium = Medium(engine, n_channels=1)
    medium.add_link(0, 2, per=0.3)
    medium.add_link(1, 2, burst=burst)
    frame = CmdFrame(src=0, dst=2, seq=1, left_mms=0, right_mms=0)
    got = []
    for _ in range(rounds):
        for senders in ((0,), (1,), (0, 1)):
            slot = medium.begin_slot()
            txs = [medium.make_transmission(s, frame, slot, 0, 0) for s in senders]
            outcome = (medium.deliver(txs[0], 2) if len(txs) == 1
                       else medium.deliver_flood(txs, 2))
            got.append(outcome.received)

    channel = stream_rng(seed, 2, "channel")
    chain = stream_rng(seed, 2, "burst:1")
    bad, cursor, expected, slot = False, 0, [], 0
    for _ in range(rounds):
        for senders in ((0,), (1,), (0, 1)):
            slot += 1
            fail = 1.0
            if 0 in senders:
                fail *= 0.3
            if 1 in senders:
                for _ in range(slot - cursor):
                    u = chain.random()
                    bad = u >= burst.p_bad_to_good if bad else u < burst.p_good_to_bad
                cursor = slot
                fail *= burst.per_bad if bad else burst.per_good
            expected.append(channel.random() >= fail)
    assert got == expected  # each stream took 3 * rounds draws: six refills
