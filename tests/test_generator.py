"""Seeded series-parallel net generator."""

from __future__ import annotations

import pytest

from netchart import PreconditionError, SpSpec, check_net, generate_sp, transform, write_net


def test_spec_validation():
    with pytest.raises(PreconditionError):
        generate_sp(SpSpec(places=0, seed=1))
    with pytest.raises(PreconditionError):
        generate_sp(SpSpec(places=-3, seed=1))
    with pytest.raises(PreconditionError):
        generate_sp(SpSpec(places=5, seed=1, max_branch=1))


def test_net_name_records_the_recipe():
    assert generate_sp(SpSpec(places=50, seed=7)).name == "sp50-mt19937-seed7"


def test_exact_place_count():
    for places in (1, 2, 3, 4, 5, 8, 13, 50, 137):
        for seed in (0, 1, 9):
            net = generate_sp(SpSpec(places=places, seed=seed))
            assert len(net.places) == places
            assert check_net(net) == []


def test_place_ids_are_dense():
    net = generate_sp(SpSpec(places=40, seed=2))
    assert set(net.places) == {f"p{i}" for i in range(40)}
    assert set(net.transitions) == {f"t{i}" for i in range(len(net.transitions))}


def test_degenerate_budgets_force_shapes():
    solo = generate_sp(SpSpec(places=1, seed=99))
    assert len(solo.places) == 1 and len(solo.transitions) == 0
    pair = generate_sp(SpSpec(places=2, seed=99))
    assert len(pair.transitions) == 1
    pre, post = next(iter(pair.transitions.values()))
    assert len(pre) == len(post) == 1
    triple = generate_sp(SpSpec(places=3, seed=99))
    assert len(triple.transitions) == 2  # too small for a parallel split


def test_seed_one_yields_the_fork_join_diamond():
    net = generate_sp(SpSpec(places=4, seed=1))
    assert len(net.places) == 4 and len(net.transitions) == 2
    (fork_pre, fork_post), (join_pre, join_post) = net.transitions.values()
    assert len(fork_pre) == 1 and len(fork_post) == 2
    assert len(join_pre) == 2 and len(join_post) == 1
    assert set(fork_post) == set(join_pre)


def test_branch_cap_is_respected():
    for max_branch in (2, 3, 4, 6):
        net = generate_sp(SpSpec(places=200, seed=5, max_branch=max_branch))
        widths = [
            max(len(pre), len(post)) for pre, post in net.transitions.values()
        ]
        assert max(widths) <= max_branch
        assert len(net.places) == 200


def test_generation_is_deterministic():
    spec = SpSpec(places=64, seed=21)
    assert write_net(generate_sp(spec)) == write_net(generate_sp(spec))


def test_seeds_pick_different_nets():
    a = write_net(generate_sp(SpSpec(places=4, seed=1)))
    b = write_net(generate_sp(SpSpec(places=4, seed=2)))
    assert a != b


def test_generated_nets_reduce_completely():
    for places, seed in ((7, 0), (31, 4), (88, 8)):
        net = generate_sp(SpSpec(places=places, seed=seed))
        _, report, _ = transform(net)
        assert report.fully_reduced
