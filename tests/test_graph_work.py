"""The linear per-step graph work agrees with the round-by-round fixpoints
it replaced, and finishes on graphs far deeper than Python's stack."""

import random

import pytest

from ilc.meaningless import _collapsible
from ilc.rewriting import Beta, BetaStrict, Eta, Strict, _redex_reachability, first_redex, redexes
from ilc.terms import ALL_SIGS
from ilc.trees import (
    FVAR,
    app,
    bind_fvars,
    bisimilar,
    bvar,
    canon,
    fvar,
    lam,
    reachable,
)
from oracles import (
    bind_fvars_by_rounds,
    canon_by_refinement,
    collapsible_by_rounds,
    random_graph,
    redex_reachability_by_rounds,
    unroll,
)

RULES = [Beta(), Eta()] + [r(sig) for sig in ALL_SIGS for r in (Strict, BetaStrict)]


def graphs(seed: int, count: int):
    """Random cyclic graphs, unrolled copies of them, and shared DAGs."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randrange(1, 12))
        yield g
        yield unroll(g, rng.randrange(1, 4))
        yield random_graph(rng, rng.randrange(1, 16), cyclic=False)


def ids(nodes) -> set[int]:
    return {id(n) for n in nodes}


def test_canon_keys_equal_the_refinement_oracle():
    rng = random.Random(7)
    for _ in range(3000):
        g = random_graph(rng, rng.randrange(1, 12), cyclic=rng.random() < 0.7)
        key = canon(g)
        assert key == canon_by_refinement(g)
        u = unroll(g, rng.randrange(1, 4))
        assert canon(u) == key
        assert canon_by_refinement(u) == key


def test_canon_merges_bisimilar_nodes_across_components():
    # X = X X and C = C X lie in different strongly connected components,
    # yet C and X are bisimilar
    x = app(None, None)
    x.a = x.b = x
    c = app(None, x)
    c.a = c
    root = app(c, x)
    assert canon(c) == canon(x) == canon_by_refinement(c)
    assert canon(root) == canon_by_refinement(root) == canon(app(x, x))
    # the same with finite leaves hanging off both cycles
    y = app(None, fvar("y"))
    y.a = y
    d = app(None, fvar("y"))
    d.a = app(d, fvar("y"))
    assert canon(app(d, y)) == canon_by_refinement(app(d, y)) == canon(app(y, y))


def test_canon_keys_are_equal_iff_bisimilar():
    rng = random.Random(8)
    pool = list(graphs(9, 60))
    for _ in range(2000):
        s, t = rng.choice(pool), rng.choice(pool)
        assert (canon(s) == canon(t)) == bisimilar(s, t)


def test_redex_reachability_equals_the_fixpoint():
    for g in graphs(11, 200):
        for rules in RULES:
            assert ids(_redex_reachability(rules, g)) == redex_reachability_by_rounds(rules, g)


def test_collapsible_equals_the_fixpoint():
    for g in graphs(12, 300):
        for sig in ALL_SIGS:
            assert ids(_collapsible(sig, g)) == collapsible_by_rounds(sig, g)


def test_bind_fvars_equals_the_fixpoint_version():
    originals = 0
    for g in graphs(13, 300):
        before = ids(reachable(g))
        for mapping in ({"x": 0}, {"x": 1, "y": 0}):
            try:
                want = bind_fvars_by_rounds(g, mapping)
            except ValueError:
                with pytest.raises(ValueError):
                    bind_fvars(g, mapping)
                continue
            got = bind_fvars(g, mapping)
            assert canon(got) == canon(want)
            # the same untouched nodes are shared with the input
            shared = ids(reachable(got)) & before
            assert shared == ids(reachable(want)) & before
            originals += len(shared)
            assert not any(n.kind == FVAR and n.a in mapping for n in reachable(got))
    assert originals > 0


# ---------------------------------------------------------------------------
# Deep inputs, built with the node constructors

DEPTH = 10**5


def lam_nesting(depth: int):
    """``\\x1. ... \\xN. (\\y.y) x1``: a redex under ``depth`` lambdas."""
    t = app(lam(bvar(0)), bvar(depth - 1))
    for _ in range(depth):
        t = lam(t)
    return t


def arg_spine(length: int):
    """``f r r ... r`` with ``length`` arguments, all the shared redex
    ``r = (\\y.y) z``."""
    r = app(lam(bvar(0)), fvar("z"))
    t = fvar("f")
    for _ in range(length):
        t = app(t, r)
    return t


def test_deep_lam_nesting():
    t = lam_nesting(DEPTH)
    key = canon(t)
    assert len(key) == DEPTH + 4
    assert key == canon(lam_nesting(DEPTH))
    assert key != canon(lam_nesting(DEPTH - 1))
    # the redex lies below the default search depth of 64
    assert first_redex(Beta(), t) is None
    assert redexes(BetaStrict((1, 1, 1)), t) == set()


def test_deep_argument_spine():
    t = arg_spine(DEPTH)
    key = canon(t)
    assert len(key) == 2 * DEPTH + 4
    assert key == canon(arg_spine(DEPTH))
    assert first_redex(Beta(), t) == ((1,) * 63 + (2,), "beta")
    found = redexes(BetaStrict((1, 1, 1)), t)
    assert found == {((1,) * k + (2,), "beta") for k in range(64)}
