import pytest

from wctrlsim.engine import Engine, stream_rng


def test_run_until_steps_each_period_until_the_first_false():
    engine = Engine(seed=0)
    seen = []

    def step():
        seen.append(engine.now)
        return len(seen) < 4

    summary = engine.run_until(250, step)
    assert seen == [0, 250, 500, 750]
    assert summary.events_processed == len(seen)
    assert summary.final_time == engine.now == 750


def test_streams_reproducible_for_same_seed():
    a = Engine(seed=7)
    b = Engine(seed=7)
    assert a.stream(3, "channel").random(10).tolist() == \
        b.stream(3, "channel").random(10).tolist()


def test_streams_differ_across_purposes_and_nodes():
    engine = Engine(seed=7)
    draws = {
        (1, "channel"): engine.stream(1, "channel").random(),
        (1, "sync"): engine.stream(1, "sync").random(),
        (2, "channel"): engine.stream(2, "channel").random(),
    }
    assert len(set(draws.values())) == 3


def test_adding_a_node_never_perturbs_other_streams():
    solo = Engine(seed=11)
    solo_draws = solo.stream(1, "channel").random(5).tolist()

    crowded = Engine(seed=11)
    crowded.stream(2, "channel").random(50)
    crowded.stream(9, "drift").random(3)
    assert crowded.stream(1, "channel").random(5).tolist() == solo_draws


def test_stream_rng_depends_on_master_seed():
    assert stream_rng(1, 0, "x").random() != stream_rng(2, 0, "x").random()


def test_a_stream_is_either_buffered_or_drawn_directly():
    engine = Engine(seed=3)
    engine.draws(1, "channel")
    engine.stream(1, "sync")
    with pytest.raises(RuntimeError):
        engine.stream(1, "channel")
    with pytest.raises(RuntimeError):
        engine.draws(1, "sync")
