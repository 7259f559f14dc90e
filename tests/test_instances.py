import pytest

from cag import (
    SequentialGame,
    analyze,
    build_named_instance,
    classify_symmetry,
    gen_random,
    validate_instance,
)


def test_example1_shape(example1):
    assert [n.value for n in example1.nodes] == [2, 1, 1, 2]
    assert [a.weight for a in example1.agents] == [4, 1, 1]
    assert example1.agents[0].strategies == ((0, 1), (2, 3))
    assert example1.agents[1].strategies == ((0, 2), (1, 3))
    assert example1.agents[2].strategies == ((0, 3),)


def test_poa_lb_shape():
    inst = build_named_instance("poa-lb", n=4, m=2)
    assert inst.agents[0].strategies == ((0, 1), (2,), (3,))
    assert all(a.strategies == inst.agents[0].strategies for a in inst.agents)
    assert all(n.value == 1 for n in inst.nodes)


def test_spoa_family_shape():
    game = build_named_instance("spoa-family", m=3)
    assert isinstance(game, SequentialGame)
    assert game.instance.num_nodes == 5
    assert game.instance.num_agents == 3
    assert len(game.instance.agents[0].strategies) == 3


def test_counterexample_shape_fails_validation():
    inst = build_named_instance("no-potential-counterexample")
    assert [a.weight for a in inst.agents] == [1, 2]
    report = validate_instance(inst)
    assert any("empty strategy" in e for e in report.errors)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_named_instance("poa-lb", n=2, m=2)
    for m in (0, -2):
        with pytest.raises(ValueError, match=f"^m must be at least 1, got {m}$"):
            build_named_instance("poa-lb", n=3, m=m)
    with pytest.raises(ValueError):
        build_named_instance("spoa-family", m=1)
    with pytest.raises(ValueError):
        build_named_instance("poa-lb")
    with pytest.raises(ValueError):
        build_named_instance("mystery-instance")


@pytest.mark.parametrize(
    "name, params",
    [
        ("example1", {"n": 5}),
        ("spoa-two-agent", {"m": 3}),
        ("spoa-family", {"n": 3, "m": 2}),
        ("spoa-family", {"n": 3}),
    ],
)
def test_stray_parameter_rejected(name, params):
    with pytest.raises(ValueError, match="takes no parameter n|takes no parameter m"):
        build_named_instance(name, **params)


def test_duplicate_strategies_are_kept():
    # two topics may share an attraction range; they stay distinct strategies
    from cag import Instance

    inst = Instance.build(
        nodes=[("q1", 1), ("q2", 1)],
        agents=[("a1", 1, [[0], [0], [1]])],
    )
    assert validate_instance(inst).ok
    assert len(inst.agents[0].strategies) == 3
    assert [p.choices for p in analyze(inst).pne] == [(0,), (1,), (2,)]


def test_generator_kinds_have_advertised_symmetry():
    for seed in range(5):
        flags = classify_symmetry(gen_random("symmetric", seed))
        assert flags == type(flags)(False, False, False)
        flags = classify_symmetry(gen_random("s-asymmetric", seed))
        assert flags == type(flags)(True, False, False)
        flags = classify_symmetry(gen_random("w-asymmetric", seed))
        assert flags == type(flags)(False, True, False)
        flags = classify_symmetry(gen_random("asymmetric", seed))
        assert flags == type(flags)(True, True, True)


def test_generator_is_deterministic_and_valid():
    for kind in ("symmetric", "s-asymmetric", "w-asymmetric", "asymmetric"):
        first = gen_random(kind, seed=123)
        second = gen_random(kind, seed=123)
        assert first == second
        assert validate_instance(first).ok
    with pytest.raises(ValueError):
        gen_random("mystery", seed=0)
    # random.Random would fold -7 onto 7, take True and 1.0 as 1, and raise
    # TypeError on a list
    for seed in (-7, True, 1.0, [1], "1"):
        with pytest.raises(ValueError, match="^seed must be"):
            gen_random("symmetric", seed=seed)


@pytest.mark.parametrize("kind", ["s-asymmetric", "asymmetric"])
def test_generator_keeps_a_single_agents_space_as_asked(kind):
    """One space has no other to differ from, so none is forced apart."""
    for nodes, strategies in ((3, 1), (1, 1), (4, 3)):
        inst = gen_random(kind, seed=0, num_nodes=nodes, num_agents=1,
                          num_strategies=strategies)
        assert len(inst.agents[0].strategies) == strategies


@pytest.mark.parametrize("bound", ["max_strategy_size", "max_weight", "max_value"])
def test_generator_rejects_bounds_below_one(bound):
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"{bound} must be at least 1"):
            gen_random("asymmetric", seed=0, **{bound: bad})
