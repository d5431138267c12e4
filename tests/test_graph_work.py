"""The linear per-step graph work and ``glb`` agree with the round-by-round
fixpoints they replaced, the iterative ``is_guarded`` and ``render_tree``
agree with the recursive walkers they replaced, and all of them finish on
graphs far deeper than Python's stack."""

import random

import pytest

from ilc.meaningless import _collapsible, is_stable
from ilc.order import glb, tree_leq
from ilc.rewriting import Beta, BetaStrict, Eta, Strict, _redex_reachability, first_redex, redexes
from ilc.terms import ALL_SIGS
from ilc.trees import (
    APP,
    BVAR,
    CUT,
    FVAR,
    HOLE,
    UNKNOWN,
    app,
    bind_fvars,
    bisimilar,
    bvar,
    canon,
    cut,
    fvar,
    is_finite,
    is_guarded,
    lam,
    reachable,
    render_tree,
    unknown,
)
from oracles import (
    bind_fvars_by_rounds,
    canon_by_refinement,
    collapsible_by_rounds,
    glb_by_rounds,
    is_guarded_by_walks,
    random_graph,
    redex_reachability_by_rounds,
    render_tree_recursive,
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


# ---------------------------------------------------------------------------
# glb: a backward worklist and an iterative build


def glb_inputs(seed: int, count: int):
    """A random graph with an unrolled copy in which one fresh leaf may
    change, the graph with an unrelated one, and all three together."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randrange(1, 12), cyclic=rng.random() < 0.7)
        copy = unroll(g, rng.randrange(1, 4))
        old = set(reachable(g))
        fresh = [n for n in reachable(copy) if n not in old and n.kind in (BVAR, FVAR, HOLE)]
        if fresh and rng.random() < 0.7:
            n = rng.choice(fresh)
            n.kind, n.a = rng.choice([(FVAR, "z"), (BVAR, 1), (HOLE, None)])
        other = random_graph(rng, rng.randrange(1, 12), cyclic=rng.random() < 0.5)
        yield [g, copy]
        yield [g, other]
        yield [g, copy, other]


def test_glb_equals_the_round_by_round_version():
    outcomes = set()
    for ts in glb_inputs(26, 600):
        for sig in ALL_SIGS:
            try:
                want = glb_by_rounds(sig, ts)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    glb(sig, ts)
                outcomes.add("rejected")
                continue
            got = glb(sig, ts)
            assert bisimilar(got, want)
            rendered = render_tree(got, ascii_only=True)
            assert rendered == render_tree(want, ascii_only=True)
            outcomes.add("bot" if got.kind == HOLE else "partial" if "bot" in rendered else "total")
    assert outcomes == {"rejected", "bot", "partial", "total"}


def fun_chain(length: int, leaf: str):
    """``f (f (... leaf))`` with ``length`` applications of ``f``."""
    t = fvar(leaf)
    for _ in range(length):
        t = app(fvar("f"), t)
    return t


def test_glb_of_a_long_chain():
    n = 10**4
    # under 000 every argument edge is strict, so the x/y disagreement at
    # the bottom removes every state above it
    assert glb((0, 0, 0), [fun_chain(n, "x"), fun_chain(n, "y")]).kind == HOLE
    # under 111 nothing is forced: the glb is the chain ending in bot
    g = glb((1, 1, 1), [fun_chain(n, "x"), fun_chain(n, "y")])
    length = 0
    while g.kind == APP:
        assert (g.a.kind, g.a.a) == (FVAR, "f")
        g, length = g.b, length + 1
    assert length == n and g.kind == HOLE


# ---------------------------------------------------------------------------
# The iterative walkers: is_guarded and render_tree


def with_marker_leaves(rng: random.Random, g):
    """Sometimes turn one leaf into a Cut or Unknown leaf."""
    leaves = [n for n in reachable(g) if n.kind in (BVAR, FVAR, HOLE)]
    if leaves and rng.random() < 0.25:
        rng.choice(leaves).kind = rng.choice([CUT, UNKNOWN])
    return g


def guarded_or_error(walk, sig, g):
    try:
        return walk(sig, g)
    except ValueError as e:
        return str(e)


def test_is_guarded_equals_the_three_walk_version():
    rng = random.Random(21)
    verdicts = set()
    for g in graphs(22, 1000):
        g = with_marker_leaves(rng, g)
        for sig in ALL_SIGS:
            got = guarded_or_error(is_guarded, sig, g)
            assert got == guarded_or_error(is_guarded_by_walks, sig, g)
            verdicts.add(got)
    assert verdicts == {True, False, "guardedness is undefined for Cut/Unknown leaves"}


def test_is_guarded_on_a_long_strict_chain():
    # f z z ... z: a chain of DEPTH application nodes along function edges
    t = fvar("f")
    for _ in range(DEPTH):
        t = app(t, fvar("z"))
    assert all(is_guarded(sig, t) for sig in ALL_SIGS)
    # close the chain into one cycle of DEPTH function edges
    bottom = t
    while bottom.a.kind == APP:
        bottom = bottom.a
    bottom.a = t
    for sig in ALL_SIGS:
        assert is_guarded(sig, t) == (sig[1] == 1)
    bottom.b = cut()
    with pytest.raises(ValueError, match="Cut/Unknown"):
        is_guarded((0, 0, 0), t)


def test_callers_keep_their_error_messages():
    # a cycle of function edges, unguarded under 000; with a marker leaf
    # below it, the marker check fires first
    looped = app(None, fvar("y"))
    looped.a = looped
    with pytest.raises(ValueError, match="order operations reject Cut/Unknown leaves"):
        tree_leq((0, 0, 0), app(looped, cut()), fvar("y"))
    with pytest.raises(ValueError, match="order operations require guarded trees"):
        tree_leq((0, 0, 0), looped, fvar("y"))
    with pytest.raises(ValueError, match="analysis rejects Cut/Unknown leaves"):
        is_stable((0, 0, 0), app(looped, unknown()))
    with pytest.raises(ValueError, match="analysis requires a guarded tree"):
        is_stable((0, 0, 0), looped)


def test_render_tree_equals_the_recursive_printer():
    rng = random.Random(23)
    for g in graphs(24, 3000):
        g = with_marker_leaves(rng, g)
        for ascii_only in (True, False):
            assert render_tree(g, ascii_only=ascii_only) == render_tree_recursive(g, ascii_only)


def test_is_finite_iff_the_recursive_printer_opens_no_rec():
    for g in graphs(25, 1000):
        assert is_finite(g) == ("rec " not in render_tree_recursive(g, True))
    assert is_finite(arg_spine(DEPTH))


def test_render_deep_lam_nesting():
    binders = "".join(f"\\x{d}." for d in range(DEPTH))
    want = binders + f"(\\x{DEPTH}.x{DEPTH}) x0"
    assert render_tree(lam_nesting(DEPTH), ascii_only=True) == want
    # the same nesting closed into one long cycle
    top = lam(None)
    t = top
    for _ in range(DEPTH - 1):
        t.a = lam(None)
        t = t.a
    t.a = top
    assert render_tree(top) == "rec M0. " + binders + "M0"


def test_render_deep_argument_spine():
    want = "f" + " ((\\x0.x0) z)" * DEPTH
    assert render_tree(arg_spine(DEPTH), ascii_only=True) == want
