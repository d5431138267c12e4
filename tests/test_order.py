import random

import pytest

from ilc.order import Lasso, glb, liminf_approx, lub_chain, tree_leq
from ilc.terms import ALL_SIGS, parse_sig, parse_term
from ilc.trees import (
    bisimilar,
    hole,
    is_guarded,
    parse_tree,
    render_tree,
    term_of_tree,
    tree_of_term,
    truncate,
)
from oracles import (
    lower_bounds,
    lub_union,
    random_graph,
    random_term,
    term_leq_named,
    tree_leq_by_positions,
    unroll,
)


def T(src):
    return tree_of_term(parse_term(src))


def test_leq_basics():
    sig = (1, 1, 1)
    assert tree_leq(sig, hole(), T(r"\x.x"))
    assert tree_leq(sig, T(r"x bot"), T(r"x y"))
    v = tree_leq(sig, T(r"x y"), T(r"x z"))
    assert not v and v.witness == (2,)


def test_leq_strict_child_clause():
    # under a strict edge, bot may not grow
    assert not tree_leq((1, 0, 1), T(r"bot y"), T(r"x y"))
    assert tree_leq((1, 1, 1), T(r"bot y"), T(r"x y"))
    # and the smaller tree must keep strict children the greater one has
    assert tree_leq((1, 0, 1), T(r"x y"), T(r"x y"))


def test_leq_on_infinite_trees():
    sig = (1, 1, 1)
    r = parse_tree("rec M. M y")
    for d in range(6):
        assert tree_leq(sig, truncate(sig, r, d), r)
        assert not tree_leq(sig, r, truncate(sig, r, d))
    assert tree_leq(sig, r, r)


def test_tree_leq_equals_the_version_with_positions():
    rng = random.Random(29)
    holds = fails = 0
    for k in range(300):
        if k % 2:
            s, t = (random_graph(rng, rng.randrange(1, 10), cyclic=k % 4 == 1) for _ in "st")
        else:
            s, t = (tree_of_term(random_term(rng, rng.randrange(1, 12))) for _ in "st")
        for sig in ALL_SIGS:
            if not (is_guarded(sig, s) and is_guarded(sig, t)):
                continue
            d = rng.randrange(6)
            lower = truncate(sig, s, d)
            for x, y in [(s, t), (t, s), (lower, s), (lower, t), (s, lower), (lower, unroll(s, 3))]:
                got, want = tree_leq(sig, x, y), tree_leq_by_positions(sig, x, y)
                assert (got.result, got.witness) == (want.result, want.witness)
                holds += got.result
                fails += got.witness is not None and len(got.witness) > 1
    assert holds > 3000 and fails > 300


def test_glb_golden_table():
    m1, m2 = T(r"\x.x y"), T(r"\x.y x")
    expected = {"011": "\\x0.bot bot", "110": "\\x0.bot", "001": "bot"}
    for s, want in expected.items():
        g = glb(parse_sig(s), [m1, m2])
        assert render_tree(g, ascii_only=True) == want


def test_glb_is_greatest_lower_bound_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        sig = rng.choice(ALL_SIGS)
        a = random_term(rng, rng.randrange(1, 7))
        b = random_term(rng, rng.randrange(1, 7))
        ta, tb = tree_of_term(a), tree_of_term(b)
        g = glb(sig, [ta, tb])
        assert tree_leq(sig, g, ta) and tree_leq(sig, g, tb)
        gterm = term_of_tree(g)
        for x in lower_bounds(sig, a):
            if term_leq_named(sig, x, b):
                assert term_leq_named(sig, x, gterm)


def test_glb_on_cyclic_trees():
    sig = (1, 1, 1)
    r = parse_tree("rec M. M y")
    s = parse_tree("rec M. M z")
    g = glb(sig, [r, s])
    # the y/z disagreement prunes every argument but keeps the spine
    assert bisimilar(g, parse_tree("rec M. M bot"))
    assert bisimilar(glb(sig, [r, r]), r)


def test_lub_chain():
    sig = (1, 1, 1)
    r = parse_tree("rec M. M y")
    chain = [truncate(sig, r, d) for d in range(5)]
    assert bisimilar(lub_chain(sig, chain), chain[-1])
    with pytest.raises(ValueError):
        lub_chain(sig, [T("x"), T("y")])


def test_lub_chain_is_the_union_of_the_domains():
    rng = random.Random(27)
    chains = 0
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 12))
        for sig in ALL_SIGS:
            if not is_guarded(sig, g):
                continue
            depths = sorted(rng.sample(range(8), 3))
            chain = [truncate(sig, g, d) for d in depths] + [g]
            assert bisimilar(lub_union(chain), lub_chain(sig, chain))
            chains += 1
    assert chains > 1000


def test_liminf_of_lasso_and_list():
    sig = (1, 1, 1)
    m1, m2 = T(r"\x.x y"), T(r"\x.y x")
    ap = liminf_approx(sig, Lasso((), (m1, m2)), 8, 100)
    assert render_tree(ap.tree, ascii_only=True) == "\\x0.bot bot"
    ap2 = liminf_approx(sig, [m1, m2, m1], 8, 100)
    assert bisimilar(ap2.tree, m1)


def test_liminf_of_generator():
    sig = (1, 1, 1)

    def alternating():
        a, b = T(r"\x.x y"), T(r"\x.y x")
        while True:
            yield a
            yield b

    ap = liminf_approx(sig, alternating(), 4, 200)
    assert render_tree(ap.tree, ascii_only=True) == "\\x0.bot bot"

    def eventually_constant():
        yield T("x y")
        while True:
            yield T("x z")

    ap2 = liminf_approx(sig, eventually_constant(), 4, 200)
    assert render_tree(ap2.tree, ascii_only=True) == "x z"


def test_liminf_honest_on_fuel():
    # a chain that is still growing when the fuel runs out
    sig = (1, 1, 1)
    r = parse_tree("rec M. M y")

    def growing():
        d = 0
        while True:
            d += 1
            yield truncate(sig, r, d)

    ap = liminf_approx(sig, growing(), 8, 12)
    assert ap.fuel_exhausted
    assert ap.has_unknown


def test_rejects_cut_unknown_inputs():
    from ilc.trees import cut, unknown

    with pytest.raises(ValueError):
        tree_leq((1, 1, 1), cut(), hole())
    with pytest.raises(ValueError):
        glb((1, 1, 1), [unknown()])
