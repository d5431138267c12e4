"""What a reduction step leaves unchanged is shared, not rebuilt.

``substitute`` copies only the paths to the variable it replaces.  It
shares a finite argument without a free de Bruijn index, and any argument
without indices, among all its occurrences, and builds one shifted copy of
any other per binder depth; a closed argument that reaches a cycle still
gets a copy per depth, because the copy unrolls the cycles and prints its
``rec`` binders elsewhere.  ``render_trees`` prints the states of a trace
as ``render_tree`` prints each of them, while it reuses the text of the
subtrees that an earlier state already printed.
"""

import io
import json
import random

from ilc.cli import main
from ilc.rewriting import BetaStrict, run_strategy, substitute
from ilc.terms import ALL_SIGS
from ilc.trees import (
    BVAR,
    FVAR,
    HOLE,
    app,
    bisimilar,
    bvar,
    cut,
    fvar,
    hole,
    is_finite,
    lam,
    map_graph,
    node_at,
    reachable,
    render_tree,
    render_trees,
    tree_of_term,
    unknown,
)

from oracles import node_index, random_graph, random_redexy_term, render_tree_recursive, substitute_recursive

# index 0 occurs twice at binder depth 0, twice at depth 1 and once at 2:
# x (x (\y. x y (x y)) (\y. \z. x))
BODY = app(
    app(bvar(0), bvar(0)),
    app(
        lam(app(app(bvar(1), bvar(0)), app(bvar(1), bvar(0)))),
        lam(lam(bvar(2))),
    ),
)
# where the occurrences sit, by binder depth
OCCURRENCES = {
    0: [(1, 1), (1, 2)],
    1: [(2, 1, 0, 1, 1), (2, 1, 0, 2, 1)],
    2: [(2, 2, 0, 0)],
}


def test_a_closed_argument_is_shared_by_all_occurrences():
    # closed, and without de Bruijn indices, so a shifted copy would be
    # isomorphic to it
    arg = app(fvar("f"), app(fvar("g"), fvar("a")))
    out = substitute(BODY, arg, node_index(BODY, arg))
    for ps in OCCURRENCES.values():
        for p in ps:
            assert node_at(out, p) is arg
    assert bisimilar(out, substitute_recursive(BODY, arg))
    # a closed cyclic argument without indices too
    loop = app(fvar("g"), None)
    loop.b = loop
    assert node_at(substitute(BODY, loop, node_index(BODY, loop)), (2, 2, 0, 0)) is loop
    # a closed finite argument with binders: its class has no free index
    ident = lam(bvar(0))
    out = substitute(BODY, ident, node_index(BODY, ident))
    for ps in OCCURRENCES.values():
        for p in ps:
            assert node_at(out, p) is ident
    assert render_tree(out) == render_tree(substitute_recursive(BODY, ident))


def test_a_closed_cyclic_argument_with_binders_gets_a_copy_per_depth():
    # rec M0. (\x0.rec M1. x0 (M1 M0)) x: its copy at a depth unrolls the
    # cycles, so it is bisimilar but prints its rec binders elsewhere,
    # as (\x0.rec M0. x0 (M0 ((\x1.M0) x))) x
    m1 = app(bvar(0), None)
    m0 = app(lam(m1), fvar("x"))
    m1.b = app(m1, m0)
    assert render_tree(m0, ascii_only=True) == "rec M0. (\\x0.rec M1. x0 (M1 M0)) x"
    out = substitute(BODY, m0, node_index(BODY, m0))
    copies = {}
    for depth, ps in OCCURRENCES.items():
        assert len({id(node_at(out, p)) for p in ps}) == 1
        copies[depth] = node_at(out, ps[0])
    assert copies[0] is m0  # depth 0 needs no shift
    assert len({id(c) for c in copies.values()}) == 3
    assert render_tree(copies[1], ascii_only=True) == "(\\x0.rec M0. x0 (M0 ((\\x1.M0) x))) x"
    want = substitute_recursive(BODY, m0)
    assert bisimilar(out, want)
    for ascii_only in (True, False):
        assert render_tree(out, ascii_only) == render_tree(want, ascii_only)


def test_an_open_argument_gets_one_shifted_copy_per_binder_depth():
    arg = app(lam(app(bvar(0), bvar(1))), bvar(0))  # two free uses of index 0
    out = substitute(BODY, arg, node_index(BODY, arg))
    copies = {}
    for depth, ps in OCCURRENCES.items():
        nodes = {id(node_at(out, p)) for p in ps}
        assert len(nodes) == 1  # the occurrences at one depth share a copy
        copies[depth] = node_at(out, ps[0])
    assert copies[0] is arg  # depth 0 needs no shift
    assert len({id(c) for c in copies.values()}) == 3
    assert [c.b.a for c in copies.values()] == [0, 1, 2]  # the free index
    assert bisimilar(out, substitute_recursive(BODY, arg))
    # 8 nodes for BODY's 9 interior ones (its two x y at binder depth 1 are
    # rebuilt once), arg's 6 nodes at depth 0, 3 new interior nodes in each
    # of the 2 shifted copies and the new variable of index 3; every other
    # variable is the index's member of its class, 3 of them BODY's
    assert len(reachable(out)) == 8 + 6 + 2 * 3 + 1 + 3


def marker_graph(rng: random.Random, g):
    """A copy of g with some leaves turned into Cut or Unknown leaves."""
    def leaf(n):
        if n.kind in (BVAR, FVAR, HOLE) and rng.random() < 0.2:
            return rng.choice([cut, unknown])()
        return None

    return map_graph(g, leaf)


def trace_states(trace):
    """The distinct states of a trace in the order ``trace_export`` prints
    them: the start, then each step's ``after`` and ``context``."""
    states = [trace.start, *(n for s in trace.steps for n in (s.before, s.after, s.context))]
    return list(dict.fromkeys(states))


def assert_renders_alike(roots, classes=None):
    """``render_trees`` prints as ``render_tree`` and the recursive printer
    do, with a fresh class table and with ``classes`` (a run's) if given."""
    for ascii_only in (True, False):
        got = render_trees(roots, ascii_only)
        assert got == [render_tree(r, ascii_only) for r in roots]
        assert got == [render_tree_recursive(r, ascii_only) for r in roots]
        if classes is not None:
            assert render_trees(roots, ascii_only, classes) == got


def test_render_trees_equals_render_tree_on_seeded_traces():
    rng = random.Random(61)
    stopped = set()
    cyclic = 0
    for k in range(150):
        sig = ALL_SIGS[k % len(ALL_SIGS)]
        if k % 3 == 0:
            t = random_graph(rng, rng.randrange(2, 12))  # often cyclic
        else:
            t = tree_of_term(random_redexy_term(rng, rng.randrange(4, 16)))
        for strategy in ("lmo", "po", "d0"):
            try:
                trace = run_strategy(BetaStrict(sig), strategy, t, 12, sig=sig)
            except (ValueError, RuntimeError):  # an unguarded graph, or a limit
                continue
            stopped.add(trace.stopped)
            states = trace_states(trace)
            cyclic += not all(map(is_finite, states))
            # the same states again, some with Cut/Unknown leaves, so that
            # later roots meet earlier subtrees at other depths and contexts
            extra = [marker_graph(rng, s) for s in states[:3]]
            extra += [lam(states[-1]), app(states[0], lam(states[-1]))]
            assert_renders_alike(states + extra, trace.classes)
    assert stopped == {"normal_form", "fuel", "cycle"}
    assert cyclic >= 10


def test_render_trees_reuses_shared_subtrees_in_every_context():
    s = lam(app(bvar(0), lam(bvar(1))))  # text depends on the lambda depth
    u = app(fvar("f"), s)  # parenthesised on argument sides only
    loop = app(s, None)
    loop.b = loop
    roots = [u, app(u, u), lam(u), app(s, u), lam(lam(app(u, s))), loop, app(loop, u), u]
    assert_renders_alike(roots)
    assert render_trees(roots, True)[1] == "f (\\x0.x0 (\\x1.x0)) (f (\\x0.x0 (\\x1.x0)))"
    assert render_trees([hole(), hole()], True) == ["bot", "bot"]
    assert render_trees([], True) == []


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_trace_answers_on_deep_inputs():
    n = 10**5
    spine = "f" + " z" * n
    nesting = "f (" * (n - 1) + "f y" + ")" * (n - 1)
    cases = [
        (spine, spine, 0),
        (nesting, nesting, 0),
        (f"(\\x.x x) ({nesting})", f"(\\x0.x0 x0) ({nesting})", 1),
    ]
    for term, start, steps in cases:
        code, out, err = run("trace", "--fuel", "3", "--format", "json", term)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["start"] == start and len(doc["steps"]) == steps
    # the text trace of the last one: one step, two copies of the nesting
    code, out, _ = run("trace", "--fuel", "3", "--ascii", cases[-1][0])
    assert code == 0
    assert out.splitlines()[0] == f"   0  beta at e  -> {nesting} ({nesting})"
