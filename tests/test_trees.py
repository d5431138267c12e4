import random
from fractions import Fraction

import pytest

from ilc.terms import ALL_SIGS, Abs, App, Var, parse_term
from ilc.trees import (
    app,
    bisimilar,
    bvar,
    canon,
    cut,
    fvar,
    hole,
    in_dom,
    is_finite,
    is_guarded,
    lam,
    node_at,
    parse_tree,
    render_tree,
    term_of_tree,
    tree_distance,
    tree_of_term,
    truncate,
    unknown,
)
from oracles import (
    bot_positions_by_queue,
    label_at,
    random_term,
    random_tree,
    subtree_at,
    term_of_tree_recursive,
    tree_of_term_recursive,
)


def T(src):
    return tree_of_term(parse_term(src))


def test_term_tree_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        m = random_term(rng, rng.randrange(1, 10))
        t = tree_of_term(m)
        assert is_finite(t)
        back = term_of_tree(t)
        assert bisimilar(tree_of_term(back), t)


def test_term_tree_conversions_equal_the_recursive_versions():
    rng = random.Random(12)
    terms = [parse_term(s) for s in [r"\x.\x.x", r"\x.(\x.x) x", r"\x.\y.\x.y x (\y.x)"]]
    terms += [random_term(rng, rng.randrange(1, 14)) for _ in range(1000)]
    for m in terms:
        t, want = tree_of_term(m), tree_of_term_recursive(m)
        assert bisimilar(t, want) and render_tree(t) == render_tree(want)
        assert term_of_tree(t) == term_of_tree_recursive(t)
    for _ in range(1000):
        t = random_tree(rng, rng.randrange(1, 14))
        assert term_of_tree(t) == term_of_tree_recursive(t)
    for t in [bvar(0), app(fvar("f"), lam(bvar(1))), lam(app(cut(), bvar(3))), app(bvar(2), unknown())]:
        with pytest.raises(ValueError) as got:
            term_of_tree(t)
        with pytest.raises(ValueError) as want:
            term_of_tree_recursive(t)
        assert str(got.value) == str(want.value)


def test_term_tree_conversions_on_deep_nesting():
    depth = 10**5
    m = term_of_tree(tree_of_term(parse_term("\\x." * depth + "x")))
    for k in range(depth):
        assert type(m) is Abs and m.binder == f"x{k}"
        m = m.body
    assert m == Var(f"x{depth - 1}")
    m = term_of_tree(tree_of_term(parse_term("f (" * depth + "x" + ")" * depth)))
    for _ in range(depth):
        assert type(m) is App and m.fun == Var("f")
        m = m.arg
    assert m == Var("x")


def test_rec_literals():
    r = parse_tree("rec M. M y")
    assert not is_finite(r)
    assert bisimilar(node_at(r, (1,)), r)
    printed = render_tree(r, ascii_only=True)
    assert bisimilar(parse_tree(printed), r)


def test_rec_requires_productivity():
    with pytest.raises(Exception):
        parse_tree("rec M. M")


def test_canon_is_bisimulation_invariant():
    a = parse_tree("rec M. M y")
    b = parse_tree("rec M. (M y) y")  # same unfolding, different graph
    assert canon(a) == canon(b)
    assert bisimilar(a, b)
    c = parse_tree("rec M. M z")
    assert canon(a) != canon(c)


def test_alpha_invariance_via_de_bruijn():
    assert canon(T(r"\x.x")) == canon(T(r"\y.y"))


def test_guardedness():
    r = parse_tree("rec M. M y")
    assert is_guarded((1, 1, 1), r)
    assert is_guarded((0, 1, 1), r)
    assert not is_guarded((0, 0, 0), r)  # the cycle uses only strict edges
    assert is_guarded((0, 0, 0), T(r"\x.x x"))


def test_truncate_and_distance():
    sig = (1, 1, 1)
    r = parse_tree("rec M. M y")
    t2 = truncate(sig, r, 2)
    assert render_tree(t2, ascii_only=True) == "bot bot y"
    assert tree_distance(sig, r, t2) == Fraction(1, 4)
    assert tree_distance(sig, r, r) == 0
    # strict edges contribute no depth
    assert tree_distance((0, 0, 0), T("x y"), T("x z")) == 1


def test_positions_and_labels():
    t = T(r"\x.x (y bot)")
    assert label_at(t, ()) == "lam"
    assert label_at(t, (0, 1)) == ()  # bound by the root lambda
    assert label_at(t, (0, 2, 1)) == ("fvar", "y")
    assert not in_dom(t, (0, 2, 2))
    assert bot_positions_by_queue(t, 10) == {(0, 2, 2)}


def test_subtree_extraction_escapes_binders():
    t = T(r"\x.\y.x y")
    sub = subtree_at(t, (0, 0))
    # x and y escape; innermost escaped binder gets index 0
    assert render_tree(sub, ascii_only=True) == "_e1 _e0"


def test_ultrametric_on_trees_random():
    rng = random.Random(13)
    for _ in range(200):
        sig = rng.choice(ALL_SIGS)
        xs = [tree_of_term(random_term(rng, rng.randrange(1, 8))) for _ in range(3)]
        a, b, c = xs
        assert tree_distance(sig, a, c) <= max(
            tree_distance(sig, a, b), tree_distance(sig, b, c)
        )
        assert (tree_distance(sig, a, b) == 0) == bisimilar(a, b)


def test_truncation_converges_to_the_tree():
    sig = (1, 1, 1)
    r = parse_tree("rec M. (\\x.M x) y")
    prev = None
    for d in range(1, 8):
        td = truncate(sig, r, d)
        assert tree_distance(sig, td, r) <= Fraction(1, 2**d)
        if prev is not None:
            from ilc.order import tree_leq

            assert tree_leq(sig, prev, td)
        prev = td
