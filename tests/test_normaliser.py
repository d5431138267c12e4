"""The normaliser over one node index shared by every analysis until
``clear_caches``, against the one that indexed every call afresh.

``oracles.bohm_tree_per_call`` is ``bohm_tree`` as it was before the shared
index: a fresh ``NodeIndex`` and a ``canon`` cache key per ``is_active`` and
``reduces_to_lam`` call, the whole input check on every ``is_active`` input,
a closed copy of every child, whose escaping indices it names, and one
``bind_fvars`` call per lambda it closed.  ``bohm_tree`` normalises each
child where it stands.
"""

import io
import itertools
import json
import random
import time
from pathlib import Path

import pytest

import oracles
from ilc import cli, meaningless, order, rewriting, trees
from ilc.meaningless import bohm_tree, clear_caches, is_active, reduces_to_lam
from ilc.terms import ALL_SIGS, parse_sig
from ilc.trees import (
    BVAR,
    CUT,
    FVAR,
    HOLE,
    UNKNOWN,
    app,
    bvar,
    cut,
    fvar,
    is_finite,
    lam,
    parse_tree,
    reachable,
    render_tree,
    tree_of_term,
    unknown,
)
from oracles import random_graph, random_loopy_tree, random_term, unroll

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "normal-form.json"


def outcome(normalise, sig, t, depth, fuel):
    """Both renderings and the flags of the normal form, or the error."""
    try:
        ap = normalise(sig, t, depth, fuel)
    except ValueError as e:
        return str(e)
    return (
        render_tree(ap.tree),
        render_tree(ap.tree, ascii_only=True),
        ap.depth,
        ap.fuel_exhausted,
        ap.non_canonical,
    )


def corpus_inputs():
    """(tree, depth, fuel) of each ``tree`` item of the normal-form corpus."""
    out = []
    for item in json.loads(CORPUS.read_text())["items"]:
        argv = item["argv"]
        assert argv[0] == "tree"
        opts = dict(zip(argv[1:-1], argv[2:-1]))
        out.append((parse_tree(argv[-1]), int(opts["--depth"]), int(opts["--fuel"])))
    return out


def loopy_inputs(seed: int, count: int):
    """``random_loopy_tree`` terms, and random cyclic graphs with their
    unrollings, which also bring unguarded inputs and escaping indices."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append((random_loopy_tree(rng, None), 12, 200))
        g = random_graph(rng, rng.randrange(1, 10))
        out += [(g, 8, 100), (unroll(g, rng.randrange(1, 3)), 8, 100)]
    return out


@pytest.mark.parametrize("clear", [True, False], ids=["cleared", "kept"])
def test_bohm_tree_equals_the_per_call_normaliser(clear):
    # without clearing, one index and its caches serve every input under
    # every signature, so a key that named two classes would show here
    clear_caches()
    oracles.clear_caches_per_call()
    inputs = corpus_inputs() + loopy_inputs(31, 40)
    kinds = set()
    for (t, depth, fuel), sig in itertools.product(inputs, ALL_SIGS):
        if clear:
            clear_caches()
            oracles.clear_caches_per_call()
        got = outcome(bohm_tree, sig, t, depth, fuel)
        assert got == outcome(oracles.bohm_tree_per_call, sig, t, depth, fuel), (sig, render_tree(t))
        kinds.add(got if isinstance(got, str) else got[3])
    assert kinds == {
        True,
        False,
        "analysis requires a guarded tree",
        "a bound variable escapes the input tree",
    }


def test_the_normaliser_copies_a_child_without_a_redex_unanalysed(monkeypatch):
    # with fuel, a leaf child and a finite child that reaches no beta redex
    # are their own stable reducts, copied with no is_active run, where the
    # per-call normaliser runs one on each; without fuel, such a tree is
    # still Unknown; and the depth-0 escape check's free index of a finite
    # class answers as the scan
    ours, theirs = [], []
    real, per_call = meaningless.is_active, oracles.is_active_per_call
    monkeypatch.setattr(meaningless, "is_active", lambda sig, t, fuel=10_000: ours.append((t, fuel)) or real(sig, t, fuel))
    monkeypatch.setattr(oracles, "is_active_per_call", lambda sig, t, fuel=10_000: theirs.append(t) or per_call(sig, t, fuel))
    rng = random.Random(37)
    inputs = loopy_inputs(35, 30) + [(tree_of_term(random_term(rng, rng.randrange(1, 12))), 8, 100) for _ in range(60)]
    leaves = escapes_checked = redex_free = 0
    for (t, depth, fuel), sig in itertools.product(inputs, ALL_SIGS):
        clear_caches()
        oracles.clear_caches_per_call()
        ours.clear()
        try:
            bohm_tree(sig, t, depth, fuel)
        except ValueError:
            continue
        index = meaningless._index
        cls, free, live = index.classes.cls, index.classes.free, index.live
        for n, f in ours:
            assert f == 0 or cls[n] < 0 or n in live
        theirs.clear()
        oracles.bohm_tree_per_call(sig, t, depth, fuel)
        leaves += sum(n.kind in (BVAR, FVAR) for n in theirs)
        for n, c in cls.items():
            if c >= 0:
                for b in range(4):
                    assert (free[c] >= b) == rewriting.escapes(n, b)
                    escapes_checked += 1
        # without fuel every tree is Unknown, these ones too
        if cls[t] >= 0 and t not in live:
            redex_free += 1
            for normalise in (bohm_tree, oracles.bohm_tree_per_call):
                ap = normalise(sig, t, depth, 0)
                assert render_tree(ap.tree) == "?" and ap.fuel_exhausted
    assert leaves > 100 and redex_free > 50 and escapes_checked > 10_000, (leaves, redex_free, escapes_checked)


# ---------------------------------------------------------------------------
# The input check and the keys of is_active


def active_outcome(active, sig, t, fuel=40):
    """The verdict with its witness printed, or the error."""
    try:
        v = active(sig, t, fuel)
    except ValueError as e:
        return str(e)
    if v.is_yes:
        tr = v.witness
        return "yes", [(s.position, s.rule) for s in tr.steps], tr.cycle_at, tr.stopped
    if v.is_no:
        return "no", render_tree(v.witness, ascii_only=True)
    return "unknown"


def checked_graphs(seed: int, count: int):
    """Random cyclic graphs, their unrollings and shared DAGs, some with Cut
    or Unknown leaves, and the graphs under a duplicator."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randrange(1, 12))
        dag = random_graph(rng, rng.randrange(1, 16), cyclic=False)
        if rng.random() < 0.3:
            for n in reachable(g) + reachable(dag):
                if n.kind == HOLE and rng.random() < 0.5:
                    n.kind = rng.choice((CUT, UNKNOWN))
        yield g
        yield unroll(g, rng.randrange(1, 4))
        yield dag
        yield app(lam(app(bvar(0), bvar(0))), g)


def test_is_active_rejects_its_input_as_the_whole_check_did():
    # a Cut leaf on an unguarded cycle gets the Cut/Unknown message first
    looped = app(None, cut())
    looped.a = looped
    spine = parse_tree("rec M. M y")
    cases = [app(fvar("x"), unknown()), lam(cut()), looped, spine, app(spine, cut())]
    rejects, unguarded = "analysis rejects Cut/Unknown leaves", "analysis requires a guarded tree"
    for t in cases:
        for sig in ALL_SIGS:
            want = active_outcome(oracles.is_active_per_call, sig, t)
            clear_caches()
            assert active_outcome(is_active, sig, t) == want
            # other calls have indexed the same nodes and cached verdicts
            # for them, under every signature that accepts them
            for other in ALL_SIGS:
                active_outcome(is_active, other, t)
            reduces_to_lam(t)
            reduces_to_lam(app(t, t))
            assert active_outcome(is_active, sig, t) == want
            # without fuel nothing is checked, as before
            clear_caches()
            assert is_active(sig, t, fuel=0).is_unknown
    assert active_outcome(is_active, (1, 1, 1), looped) == rejects
    assert active_outcome(is_active, (0, 0, 0), spine) == unguarded
    assert active_outcome(is_active, (1, 1, 1), spine)[0] == "no"
    assert active_outcome(is_active, (0, 0, 0), app(spine, cut())) == rejects


def test_is_active_on_one_index_answers_as_a_fresh_index_per_call():
    clear_caches()
    outcomes = set()
    cyclic = 0
    for g in checked_graphs(71, 120):
        cyclic += not is_finite(g)
        for sig, fuel in itertools.product(ALL_SIGS, (3, 40)):
            # empty verdict caches, so every verdict is computed, but the
            # index, its classes and its canon keys carry over
            meaningless._whnf_cache.clear()
            meaningless._active_cache.clear()
            oracles.clear_caches_per_call()
            got = active_outcome(is_active, sig, g, fuel)
            assert got == active_outcome(oracles.is_active_per_call, sig, g, fuel)
            outcomes.add(got if isinstance(got, str) else got[0])
    assert outcomes == {
        "yes",
        "no",
        "unknown",
        "analysis rejects Cut/Unknown leaves",
        "analysis requires a guarded tree",
    }
    assert cyclic > 100


def test_clear_caches_drops_the_index_and_makes_none():
    is_active((1, 1, 1), parse_tree("x"))
    assert meaningless._index is not None
    clear_caches()
    assert meaningless._index is None
    assert not meaningless._whnf_cache and not meaningless._active_cache


# ---------------------------------------------------------------------------
# Deep inputs: no copy and no recursion per depth level


@pytest.mark.parametrize("sig", ["001", "101", "111"])
def test_bohm_tree_of_a_deep_lambda_nesting(sig):
    # \x1. ... \xn. y, and \x1. ... \xn. xn: under 001 every lambda lies in
    # one depth-0 region; under 101 and 111 each is a depth level of its own
    n = 10**4
    lambdas = "".join(f"\\x{i}." for i in range(n))
    for leaf, text in ((fvar("y"), "y"), (bvar(0), f"x{n - 1}")):
        clear_caches()
        t = leaf
        for _ in range(n):
            t = lam(t)
        ap = bohm_tree(parse_sig(sig), t, depth=n + 1)
        assert render_tree(ap.tree, ascii_only=True) == lambdas + text
        assert not ap.fuel_exhausted


# ---------------------------------------------------------------------------
# Children normalised where they stand, against the per-call normaliser,
# which closes each child before it analyses it


def self_applied_pairs(seed: int, count: int):
    r"""``\x.\y. f M``, where M applies pairs ``P P`` with
    ``P = \a.\b. a a N`` and N naming x or y.  Under a strict lambda edge
    ``P P`` comes back one binder deeper at every round, where x and y
    have ever larger indices.  Some such terms grow exponentially; these
    seeds give none that does within the budgets below."""
    rng = random.Random(seed)
    for _ in range(count):
        pieces = []
        for _ in range(rng.randrange(1, 3)):
            body = "a a"
            for _ in range(rng.randrange(1, 3)):
                arg = rng.choice(["(b x)", "(b y)", "x", "y", "(b (a a))", "b"])
                body = f"{body} {arg}" if rng.random() < 0.7 else f"b ({body})"
            pieces.append(rf"(\a.\b. {body}) (\a.\b. {body})")
        pieces += rng.sample(["x", "y", "f"], rng.randrange(2))
        rng.shuffle(pieces)
        yield parse_tree(r"\x.\y. f (" + " ".join(f"({p})" for p in pieces) + ")")


def test_children_normalised_in_place_answer_as_closed_ones():
    # under a strict lambda edge (001 in this sample) is_active proves such
    # a child active only if it keys a variable bound outside the child as
    # one name at every depth
    bots = 0
    for t, sig in itertools.product(self_applied_pairs(1, 150), ALL_SIGS):
        clear_caches()
        oracles.clear_caches_per_call()
        got = outcome(bohm_tree, sig, t, 5, 25)
        assert got == outcome(oracles.bohm_tree_per_call, sig, t, 5, 25), (sig, render_tree(t))
        bots += sig == (0, 0, 1) and "bot" in got[1] and not got[3]
    assert bots > 20


def test_an_index_escaping_the_input():
    # in the depth-0 region it stays an index, printed as a free _e name;
    # in a child under a non-strict edge no lambda of the copy binds it
    sig = parse_sig("001")
    for t, text in [(app(bvar(0), fvar("y")), "_e0 y"), (lam(app(fvar("f"), bvar(0))), r"\x0.f x0")]:
        clear_caches()
        assert render_tree(bohm_tree(sig, t).tree, ascii_only=True) == text
    for t in [app(fvar("f"), bvar(0)), lam(app(fvar("f"), bvar(1)))]:
        clear_caches()
        with pytest.raises(ValueError, match="^a bound variable escapes the input tree$"):
            bohm_tree(sig, t)


def test_a_variable_bound_outside_the_analysed_tree_is_one_name():
    # \w. P P with P = \a.\b. a a (b x): under a strict lambda edge P P
    # comes back one binder deeper at every round, where x has an ever
    # larger index.  x is one variable whether a lambda of the copy above
    # binds it or it escapes the input, so the recurrence is found either
    # way
    body = r"\w. (\a.\b. a a (b x)) (\a.\b. a a (b x))"
    escaping = parse_tree(rf"\x.{body}").a
    cases = [("001", parse_tree(rf"\x.\y. f ({body})"), r"\x0.\x1.f bot"), ("001", escaping, "bot"),
             ("000", escaping, "bot")]
    for sig, t, text in cases:
        clear_caches()
        ap = bohm_tree(parse_sig(sig), t, 5, 25)
        assert render_tree(ap.tree, ascii_only=True) == text and not ap.fuel_exhausted


def test_bohm_tree_of_a_binder_spine_takes_linear_time():
    # \x0. ... \x1999. f x0 ... x1999 under 101: every lambda is a depth
    # level of its own, and each argument names a lambda up to 2000 levels
    # above it, so a copy of each child per level would be quadratic
    n = 2000
    text = "".join(f"\\x{i}." for i in range(n)) + " ".join(["f"] + [f"x{i}" for i in range(n)])
    t = parse_tree(text)
    clear_caches()
    start = time.perf_counter()
    ap = bohm_tree(parse_sig("101"), t, depth=n + 2)
    assert time.perf_counter() - start < 2
    assert render_tree(ap.tree, ascii_only=True) == text and not ap.fuel_exhausted


def test_is_active_takes_each_preparatory_step_once(monkeypatch):
    calls = []
    real = rewriting.try_step

    def counting(rules, t, p, *args, **kwargs):
        calls.append((t, p))
        return real(rules, t, p, *args, **kwargs)

    for mod in (meaningless, rewriting):
        monkeypatch.setattr(mod, "try_step", counting)
    # under 111 the function child I (\x.x x) becomes a lambda in one
    # preparatory step, and the redex that this exposes gives t back
    t = parse_tree(r"((\z.z) (\x.x x)) ((\z.z) (\x.x x))")
    clear_caches()
    v = is_active((1, 1, 1), t)
    steps = v.witness.steps
    assert [s.position for s in steps] == [(1,), ()] and v.witness.cycle_at == 0
    # of the calls, those on a state of the run are its steps, each once
    on_states = [(t, p) for t, p in calls if any(t is s.before for s in steps)]
    assert on_states == [(s.before, s.position) for s in steps]


# ---------------------------------------------------------------------------
# ilc order and ilc dist check each input once


def test_order_and_dist_check_each_input_once(monkeypatch):
    calls = []
    real = trees.is_guarded

    def counting(sig, t):
        calls.append(t)
        return real(sig, t)

    for mod in (cli, order, trees):
        monkeypatch.setattr(mod, "is_guarded", counting)
    # the exact answers and messages of the version that checked each
    # input again after load, which made 3 checks for order and 4 for dist
    cases = [
        (["order", "--ascii", "--sig", "101", r"\x.x (\y.y)", r"\x.x bot"], 0,
         "left <= right: False\nright <= left: True\nglb: \\x0.x0 bot\n", "", 2),
        (["order", "--format", "json", "--sig", "011", r"\x.x y", r"\x.y x"], 0,
         '{"geq": false, "glb": "\\\\x0.bot bot", "leq": false}\n', "", 2),
        (["order", "--sig", "000", "rec M. M x", "x"], 1,
         "", "ilc: parse error: the tree is not guarded for this signature (at offset 0)\n", 1),
        (["order", "--sig", "111", "x", r"(\x. x"], 1,
         "", "ilc: parse error: expected ), found end of input (at offset 6)\n", 1),
        (["dist", "--sig", "101", r"\x.x (\y.y)", r"\x.x bot"], 0, "1/4\n", "", 2),
        (["dist", "--format", "json", "--sig", "011", r"\x.x y", r"\x.y x"], 0,
         '{"distance": "1/2"}\n', "", 2),
        (["dist", "--sig", "000", "x", "rec M. M x"], 1,
         "", "ilc: parse error: the tree is not guarded for this signature (at offset 0)\n", 2),
        (["dist", "--sig", "111", ")", "x"], 1,
         "", "ilc: parse error: expected a term, found ) (at offset 0)\n", 0),
    ]
    for argv, code, stdout, stderr, checks in cases:
        calls.clear()
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out=out, err=err) == code
        assert (out.getvalue(), err.getvalue()) == (stdout, stderr)
        assert len(calls) == checks, argv
