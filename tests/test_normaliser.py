"""The normaliser over one node index shared by every analysis until
``clear_caches``, against the one that indexed every call afresh.

``oracles.bohm_tree_per_call`` is ``bohm_tree`` as it was before the shared
index: a fresh ``NodeIndex`` and a ``canon`` cache key per ``is_active`` and
``reduces_to_lam`` call, the whole input check on every ``is_active`` input,
and one ``bind_fvars`` call per lambda it closed.
"""

import io
import itertools
import json
import random
from pathlib import Path

import pytest

import oracles
from ilc import cli, meaningless, order, trees
from ilc.meaningless import bohm_tree, clear_caches, is_active, reduces_to_lam
from ilc.terms import ALL_SIGS, parse_sig
from ilc.trees import (
    CUT,
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
    unknown,
)
from oracles import random_graph, random_loopy_tree, unroll

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
        return "yes", [(s.position, s.rule) for s in tr.steps], tr.cycle_at, tr.metadata
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
# Deep inputs: one binder pass, and no recursion per depth level


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
