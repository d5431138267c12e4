import random
from fractions import Fraction

import pytest

from ilc import alpha_eq, conflicts, term_distance, term_height, term_leq
from ilc.terms import (
    ALL_SIGS,
    Abs,
    App,
    Bot,
    ParseError,
    Var,
    acut,
    adepth,
    parse_sig,
    parse_term,
    render_term,
    sig_str,
)
from ilc.trees import APP, BVAR, FVAR, LAM, bisimilar, parse_tree, render_tree
from oracles import (
    alpha_eq_named,
    conflicts_named,
    parse_term_recursive,
    parse_tree_recursive,
    random_graph,
    random_term,
    render_term_recursive,
    term_distance_named,
    term_height_recursive,
    term_leq_named,
    term_truncate,
)


def test_parse_render_roundtrip():
    for src in [r"\x.x", r"(\x.x x) (\x.x x)", r"x y z", r"\x.\y.x (y bot)"]:
        t = parse_term(src)
        assert alpha_eq(parse_term(render_term(t)), t)


def test_parse_unicode_aliases():
    assert parse_term("λx.⊥") == Abs("x", Bot())
    assert render_term(Abs("x", Bot())) == "\\x.⊥"
    assert render_term(Abs("x", Bot()), ascii_only=True) == "\\x.bot"


def test_application_is_left_associative():
    assert parse_term("a b c") == App(App(Var("a"), Var("b")), Var("c"))


def test_lambda_scopes_right():
    assert parse_term(r"\x.x y") == Abs("x", App(Var("x"), Var("y")))


# (source, message, offset) of every ParseError site, for both parsers
PARSE_ERRORS = [
    ("", "expected a term, found end of input", 0),
    ("x )", "trailing input ')'", 2),
    ("x # y", "unexpected character '#'", 2),
    ("\\.x", "expected ident, found .", 1),
    ("\\bot.x", "expected ident, found bot", 1),
    ("\\rec.x", "expected ident, found rec", 1),
    ("\\x x", "expected ., found x", 3),
    ("\\x", "expected ., found end of input", 2),
    ("\\x.)", "expected a term, found )", 3),
    ("(x", "expected ), found end of input", 2),
    ("(x .)", "expected ), found .", 3),
    ("(f \\x.x)", "expected ), found \\", 3),
    ("f \\x.x", "trailing input '\\\\'", 2),
    ("f rec M. M", "trailing input 'rec'", 2),
    ("(f rec M. f M)", "expected ), found rec", 3),
]

# sites only parse_term reaches
TERM_ERRORS = [
    ("rec M. M x", "'rec' literals denote trees, not terms", 0),
    ("  rec", "'rec' literals denote trees, not terms", 2),
    ("\\x.rec M. M", "expected a term, found rec", 3),
    ("(rec M. M)", "expected a term, found rec", 1),
]

# sites only parse_tree reaches
TREE_ERRORS = [
    ("rec M. M", "unproductive rec binding 'M'", 0),
    ("\\x. rec M. (M)", "unproductive rec binding 'M'", 4),
    ("rec M. rec N. N", "unproductive rec binding 'N'", 7),
    ("rec bot. x", "expected ident, found bot", 4),
    ("rec M x", "expected ., found x", 6),
    ("rec M.", "expected a term, found end of input", 6),
    ("rec M. M )", "unproductive rec binding 'M'", 0),
]


def test_parse_errors_carry_offsets():
    for parse, cases in [
        (parse_term, PARSE_ERRORS + TERM_ERRORS),
        (parse_tree, PARSE_ERRORS + TREE_ERRORS),
    ]:
        for text, message, offset in cases:
            with pytest.raises(ParseError) as e:
                parse(text)
            assert str(e.value) == f"{message} (at offset {offset})", text
            assert e.value.offset == offset, text


TOKENS = ["x", "y", "M", "bot", "⊥", "\\", "λ", ".", "(", ")", "rec"]


def random_token_string(rng: random.Random) -> str:
    """Up to 24 tokens of the parsers' alphabet, rarely a stray character."""
    parts = []
    for _ in range(rng.randrange(25)):
        parts.append("#" if rng.random() < 0.01 else rng.choice(TOKENS))
        parts.append(rng.choice([" ", " ", ""]))
    return "".join(parts)


def random_source(rng: random.Random, size: int) -> tuple[str, bool]:
    """A grammatical term or ``rec`` literal, and whether it is an atom.
    Binders reuse two names, so shadowing and unproductive recs are common."""
    if size <= 1:
        return rng.choice(["x", "M", "f", "bot"]), True
    kind = rng.choice(["lam", "rec", "app", "app"])
    if kind != "app":
        body, _ = random_source(rng, size - 1)
        binder = "\\" if kind == "lam" else "rec "
        return f"{binder}{rng.choice('xM')}. {body}", False
    k = rng.randrange(1, size)
    fun, fun_atom = random_source(rng, k)
    arg, arg_atom = random_source(rng, size - k)
    if fun.startswith(("\\", "rec")):
        fun = f"({fun})"
    return f"{fun} {arg if arg_atom else f'({arg})'}", False


def parse_outcome(parse, text: str):
    try:
        return parse(text), None
    except ParseError as e:
        return None, (str(e), e.offset)


def test_parsers_equal_the_recursive_descent_versions():
    rng = random.Random(8)
    sources = [
        "rec M. \\M. M",  # a rec name shadows every lambda binder of that name
        "\\M. rec M. \\M. M M",
        "rec M. rec N. M",  # tied innermost first
        "rec M. \\x. rec N. M N",
        "f \\x.x",
    ]
    sources += [random_token_string(rng) for _ in range(20_000)]
    sources += [random_source(rng, rng.randrange(1, 14))[0] for _ in range(2_000)]
    sources += [render_term(random_term(rng, rng.randrange(1, 12))) for _ in range(1_000)]
    sources += [render_tree(random_graph(rng, rng.randrange(1, 10)), True) for _ in range(1_000)]
    trees = 0
    for text in sources:
        assert parse_outcome(parse_term, text) == parse_outcome(parse_term_recursive, text), text
        tree, error = parse_outcome(parse_tree, text)
        want, want_error = parse_outcome(parse_tree_recursive, text)
        assert error == want_error, text
        if tree is not None:
            assert bisimilar(tree, want) and render_tree(tree) == render_tree(want), text
            trees += 1
    assert trees > 4_000


DEEP = 10**5


def test_parsers_finish_on_deep_nesting():
    parens = "(" * DEEP + "x" + ")" * DEEP
    assert parse_term(parens) == Var("x")
    t = parse_tree(parens)
    assert (t.kind, t.a) == (FVAR, "x")

    lams = "\\x." * DEEP + "x"
    m, t = parse_term(lams), parse_tree(lams)
    for _ in range(DEEP):
        assert type(m) is Abs and m.binder == "x" and t.kind == LAM
        m, t = m.body, t.a
    assert m == Var("x") and (t.kind, t.a) == (BVAR, 0)

    args = "f (" * DEEP + "x" + ")" * DEEP
    m, t = parse_term(args), parse_tree(args)
    for _ in range(DEEP):
        assert type(m) is App and m.fun == Var("f")
        assert t.kind == APP and (t.a.kind, t.a.a) == (FVAR, "f")
        m, t = m.arg, t.b
    assert m == Var("x") and (t.kind, t.a) == (FVAR, "x")

    root = parse_tree("rec M. " + "\\x." * DEEP + "M")
    t = root
    for _ in range(DEEP):
        assert t.kind == LAM
        t = t.a
    assert t is root


def test_render_term_equals_the_recursive_version():
    rng = random.Random(9)
    terms = [random_term(rng, rng.randrange(1, 40)) for _ in range(3_000)]
    terms += [App(Abs("x", Var("x")), App(Var("f"), Abs("y", Bot()))), Bot()]
    for t in terms:
        for ascii_only in (False, True):
            assert render_term(t, ascii_only) == render_term_recursive(t, ascii_only)


def test_render_term_finishes_on_deep_nesting():
    for text in ["f (" * DEEP + "f x" + ")" * DEEP, "\\x." * DEEP + "x", "f" + " x" * DEEP]:
        assert render_term(parse_term(text)) == text


def test_sig_parsing():
    assert parse_sig("010") == (0, 1, 0)
    assert sig_str((1, 0, 1)) == "101"
    for bad in ["01", "0101", "abc", "012"]:
        with pytest.raises(ValueError):
            parse_sig(bad)


def test_adepth_and_acut():
    p = (1, 0, 2)
    assert adepth((1, 1, 1), p) == 3
    assert adepth((0, 0, 0), p) == 0
    assert adepth((0, 1, 0), p) == 1
    assert acut((0, 1, 0), p) == (1,)
    assert acut((1, 1, 1), p) == (1, 0, 2)
    assert acut((0, 0, 0), p) == ()


def test_alpha_equivalence():
    assert alpha_eq(parse_term(r"\x.x"), parse_term(r"\y.y"))
    assert not alpha_eq(parse_term(r"\x.x"), parse_term(r"\y.x"))
    assert conflicts(parse_term("bot"), parse_term("x")) == {()}


def test_conflict_positions():
    m = parse_term(r"\x.x (a b)")
    n = parse_term(r"\y.y (a c)")
    assert conflicts(m, n) == {(0, 2, 2)}


def test_distance_examples():
    sig = (1, 1, 1)
    assert term_distance(sig, parse_term("x y"), parse_term("x z")) == Fraction(1, 2)
    assert term_distance(sig, parse_term("x"), parse_term("x")) == 0
    assert term_distance((0, 0, 0), parse_term("x y"), parse_term("x z")) == 1


def test_order_bot_grows_only_nonstrict():
    b, t = parse_term(r"\x.bot"), parse_term(r"\x.x")
    assert term_leq((1, 0, 1), b, t)
    assert not term_leq((0, 0, 1), b, t)  # strict lambda edge
    assert term_leq((0, 0, 1), parse_term("bot"), t)


def test_order_and_metric_laws_random():
    rng = random.Random(7)
    for _ in range(300):
        sig = rng.choice(ALL_SIGS)
        a = random_term(rng, rng.randrange(1, 9))
        b = random_term(rng, rng.randrange(1, 9))
        c = random_term(rng, rng.randrange(1, 9))
        # ultrametric
        dab, dbc, dac = (
            term_distance(sig, a, b),
            term_distance(sig, b, c),
            term_distance(sig, a, c),
        )
        assert dac <= max(dab, dbc)
        assert dab == term_distance(sig, b, a)
        assert (dab == 0) == alpha_eq(a, b)
        # order: reflexive, bot least
        assert term_leq(sig, a, a)
        assert term_leq(sig, Bot(), a)
        # antisymmetry on the nose
        if term_leq(sig, a, b) and term_leq(sig, b, a):
            assert alpha_eq(a, b)


def test_height():
    assert term_height((1, 1, 1), parse_term("bot")) == 0
    assert term_height((1, 1, 1), parse_term("x")) == 1
    assert term_height((1, 1, 1), parse_term(r"\x.x")) == 2
    assert term_height((0, 0, 0), parse_term(r"\x.x y")) == 1


def free_vars(t) -> set[str]:
    match t:
        case Var(name):
            return {name}
        case Abs(x, body):
            return free_vars(body) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
    return set()


# binder names for alpha-renaming: the generators' own and the old fresh names
RENAME_POOL = ("x", "y", "v0", "v1", "_c0", "_c1")


def alpha_rename(rng: random.Random, t, env=None, depth: int = 0):
    """An alpha-equivalent copy of ``t`` with binders renamed at random: a
    new name never captures a free variable, but may shadow an outer binder
    whose variable the body does not use."""
    env = env or {}
    match t:
        case Var(name):
            return Var(env.get(name, name))
        case Abs(x, body):
            taken = {env.get(v, v) for v in free_vars(t)}
            z = rng.choice([n for n in RENAME_POOL + (f"z{depth}",) if n not in taken])
            return Abs(z, alpha_rename(rng, body, {**env, x: z}, depth + 1))
        case App(f, a):
            return App(alpha_rename(rng, f, env, depth), alpha_rename(rng, a, env, depth))
    return t


def test_term_functions_equal_the_named_versions():
    rng = random.Random(11)
    equal = leq = 0
    for k in range(400):
        free = ("x", "y") if k % 2 else ("v0", "_c0")
        a = random_term(rng, rng.randrange(1, 10), free=free)
        b = random_term(rng, rng.randrange(1, 10), free=free)
        ra, rb = alpha_rename(rng, a), alpha_rename(rng, b)
        pairs = [(a, b), (a, ra), (ra, a), (ra, rb), (b, rb)]
        for m, n in pairs:
            assert conflicts(m, n) == conflicts_named(m, n), (m, n)
            assert alpha_eq(m, n) == alpha_eq_named(m, n), (m, n)
            equal += alpha_eq(m, n)
        for sig in ALL_SIGS:
            d = rng.randrange(5)
            for m, n in pairs + [(term_truncate(sig, a, d), ra), (ra, term_truncate(sig, a, d))]:
                assert term_distance(sig, m, n) == term_distance_named(sig, m, n), (sig, m, n)
                assert term_leq(sig, m, n) is term_leq_named(sig, m, n), (sig, m, n)
                leq += term_leq(sig, m, n)
            for m in (a, b, ra):
                assert term_height(sig, m) == term_height_recursive(sig, m), (sig, m)
    assert equal > 1000 and leq > 10_000


# free variables named like the fresh binders the named versions once used
CAPTURE_CASES = [
    (r"\x.x", r"\y._c0", (0,), Fraction(1, 2)),
    (r"\x.\_c0.x", r"\y.\_c0._c0", (0, 0), Fraction(1, 4)),
]


def test_free_names_never_meet_bound_ones():
    sig = (1, 1, 1)
    for m, n, at, distance in CAPTURE_CASES:
        m, n = parse_term(m), parse_term(n)
        assert conflicts(m, n) == conflicts_named(m, n) == {at}
        assert term_distance(sig, m, n) == distance
        assert not alpha_eq(m, n)
        assert not term_leq(sig, m, n) and not term_leq(sig, n, m)


def test_term_functions_finish_on_deep_terms():
    sig, deep = (1, 1, 1), 10**4
    shapes = [
        ("\\x." * deep + "{}", "x", "y", (0,) * deep),
        ("f (" * deep + "{}" + ")" * deep, "x", "y", (2,) * deep),
        ("{}" + " z" * deep, "f", "g", (1,) * deep),
    ]
    for text, leaf, other, at in shapes:
        m, same, n = (parse_term(text.format(v)) for v in (leaf, leaf, other))
        assert alpha_eq(m, same) and not alpha_eq(m, n)
        assert conflicts(m, same) == set() and conflicts(m, n) == {at}
        assert term_distance(sig, m, same) == 0
        assert term_distance(sig, m, n) == Fraction(1, 2**deep)
        assert term_leq(sig, m, same) and not term_leq(sig, m, n)
        assert term_height(sig, m) == deep + 1
