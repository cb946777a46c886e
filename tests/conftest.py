"""Shared fixtures: worked evolutions, hand-built trees and seeded evolutions."""

import random

import pytest

from tdspace import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BetaTree,
    BreakpointId,
    WordEvolution,
)
from tdspace.words import choices_for, td_step


@pytest.fixture
def ev_540():
    """1 -> 121 -> 3121 -> 3124121, the fenced worked example."""
    return WordEvolution(steps=((1, 1), (1, 0), (2, 3)))


@pytest.fixture
def ev_121():
    return WordEvolution(steps=((1, 1),))


@pytest.fixture
def worked_beta_tree():
    """Five nodes, one root fence; every subtree sum lands on 18.

    a1 and b1 hang under the roots and are fenced; a2 sits on the
    segment [a1, B]; b2 and b3 both sit on [A, b1].
    """
    a1, b1 = BreakpointId(1, A_SIDE), BreakpointId(1, B_SIDE)
    a2 = BreakpointId(2, A_SIDE)
    b2, b3 = BreakpointId(2, B_SIDE), BreakpointId(3, B_SIDE)
    return BetaTree(
        a_parent={a1: ROOT_A, b1: ROOT_A, a2: a1, b2: ROOT_A, b3: ROOT_A},
        b_parent={a1: ROOT_B, b1: ROOT_B, a2: ROOT_B, b2: b1, b3: b1},
        major_side={a1: B_SIDE, b1: A_SIDE, a2: A_SIDE, b2: B_SIDE, b3: B_SIDE},
        fences=frozenset({(a1, b1)}),
    )


@pytest.fixture
def skewed_minor_tree():
    """Comparable parents throughout, but 5b's minor skips past 3a.

    The chain is 1a < 2b < 3a < 4b; node 5b picks (1a, 4b) although the
    nearest a-type node above 4b is 3a.  Trees like this defeat the
    subtree kernel identity, which is why validation rejects them.
    """
    n1a, n2b = BreakpointId(1, A_SIDE), BreakpointId(2, B_SIDE)
    n3a, n4b = BreakpointId(3, A_SIDE), BreakpointId(4, B_SIDE)
    n5b = BreakpointId(5, B_SIDE)
    return BetaTree(
        a_parent={n1a: ROOT_A, n2b: n1a, n3a: n1a, n4b: n3a, n5b: n1a},
        b_parent={n1a: ROOT_B, n2b: ROOT_B, n3a: n2b, n4b: n2b, n5b: n4b},
        major_side={
            n1a: B_SIDE,
            n2b: A_SIDE,
            n3a: B_SIDE,
            n4b: A_SIDE,
            n5b: B_SIDE,
        },
        fences=frozenset(),
    )


def _random_evolution(n, seed):
    rng = random.Random(seed)
    word, steps = (1,), []
    for symbol in range(2, n + 1):
        choice = rng.choice(list(choices_for(word)))
        steps.append(choice)
        word = td_step(word, choice, symbol)
    return WordEvolution(steps=tuple(steps))


@pytest.fixture
def random_evolution():
    """``random_evolution(n, seed)``: an evolution of ``n`` TDs with a
    uniform choice at every step."""
    return _random_evolution
