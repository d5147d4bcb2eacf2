"""Randomized cross-engine checks on generated orthogonal systems.

Systems case on the root constructor of the first argument, which makes
non-overlap structural; terms and right-hand sides are random, so plenty
of runs hit the budget and are skipped rather than compared.
"""

import random

import pytest

from normbench import crs, graphs, scott
from tests_util import random_closed_term, random_system


def test_graph_engine_agrees_on_random_systems():
    rng = random.Random(101)
    compared = 0
    for _ in range(40):
        system = random_system(rng)
        for _ in range(4):
            t = random_closed_term(rng, system.signature, 4)
            term_out = crs.reduce(system, t, 200)
            if term_out.kind == "exhausted":
                continue
            g = graphs.term_to_graph(t)
            out = graphs.graph_reduce(g, system, 200)
            assert out.kind == "normal"
            assert out.steps == term_out.steps
            assert graphs.graph_to_term(out.graph, 100_000) == term_out.term
            compared += 1
    assert compared > 60


def test_scott_compiler_agrees_on_random_systems():
    rng = random.Random(202)
    compared = 0
    for _ in range(12):
        system = random_system(rng)
        ctx = scott.ScottContext(system)
        for _ in range(3):
            t = random_closed_term(rng, system.signature, 3)
            probe = crs.reduce(system, t, 60)
            if probe.kind == "exhausted":
                continue
            v = scott.simulate_and_check(ctx, t, 60)
            assert v.consistent is True, crs.term_to_str(t)
            compared += 1
    assert compared > 20


def test_random_policy_agrees_on_random_systems():
    rng = random.Random(303)
    compared = 0
    for _ in range(20):
        system = random_system(rng)
        for _ in range(3):
            t = random_closed_term(rng, system.signature, 4)
            base = crs.reduce(system, t, 200)
            if base.kind == "exhausted":
                continue
            for seed in range(3):
                out = crs.reduce(system, t, 400, rng=random.Random(seed))
                assert out.steps == base.steps
                assert out.term == base.term
            compared += 1
    assert compared > 30
