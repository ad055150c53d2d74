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
    assert engine.now == 750


def take(draws, n):
    return [next(draws) for _ in range(n)]


def test_streams_reproducible_for_same_seed():
    a = Engine(seed=7)
    b = Engine(seed=7)
    assert take(a.draws(3, "channel"), 10) == take(b.draws(3, "channel"), 10)


def test_streams_differ_across_purposes_and_nodes():
    engine = Engine(seed=7)
    draws = {
        (1, "channel"): next(engine.draws(1, "channel")),
        (1, "sync"): next(engine.draws(1, "sync")),
        (2, "channel"): next(engine.draws(2, "channel")),
        (None, "hop-forward"): stream_rng(7, None, "hop-forward").random(),
    }
    assert len(set(draws.values())) == 4


def test_adding_a_node_never_perturbs_other_streams():
    solo = Engine(seed=11)
    solo_draws = take(solo.draws(1, "channel"), 5)

    crowded = Engine(seed=11)
    take(crowded.draws(2, "channel"), 50)
    take(crowded.draws(9, "burst:1"), 3)
    assert take(crowded.draws(1, "channel"), 5) == solo_draws


def test_stream_rng_depends_on_master_seed():
    assert stream_rng(1, 0, "x").random() != stream_rng(2, 0, "x").random()
