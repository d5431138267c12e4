"""The linear per-step graph work and ``glb`` agree with the round-by-round
fixpoints they replaced, and ``compare`` with ``tree_leq`` both ways and the
earlier ``glb``; every state of an ``is_active`` run stays guarded, and its
redex keys equal those of the naming walk they replaced; a class's free
index equals a scan; the iterative ``is_guarded`` and ``render_tree``, the
eight walkers built on ``trees.transform`` and ``_mark_unstable`` agree with
the recursive versions they replaced, and the de Bruijn walkers print and
class as the walk by ``transform`` they replaced, share only the finite
input nodes that they leave unchanged and intern what they make; the
position enumerations built on ``trees.positions`` agree
with the hand-written walks they replaced; and all of them finish on graphs
far deeper than Python's stack, open and closed into cycles.  The one
guardedness search over a glb's members and ``is_stable``'s walk over nodes
agree with the member-by-member check and the walk over paths that they
replaced."""

import itertools
import math
import random
import sys
from collections import Counter

import pytest

from ilc import developments, meaningless
from ilc.developments import _bound_var_positions, _unguarded_to_hole
from ilc.meaningless import _collapsible, is_stable
from ilc.order import _check_inputs, _mark_unstable, compare, glb, liminf_approx, tree_leq
from ilc.rewriting import (
    Beta,
    BetaStrict,
    Eta,
    NodeIndex,
    Strict,
    first_redex,
    occurs_index,
    redexes,
    shift,
    substitute,
    unshift_free,
)
from ilc.terms import ALL_SIGS
from ilc.trees import (
    APP,
    BVAR,
    CUT,
    FVAR,
    HOLE,
    UNKNOWN,
    ClassTable,
    app,
    bind_fvars,
    bisimilar,
    bvar,
    canon,
    children,
    close_subtree,
    components,
    cut,
    fvar,
    hole,
    is_finite,
    is_guarded,
    lam,
    map_graph,
    max_bvar_index,
    max_bvar_indices,
    parse_tree,
    positions,
    reachable,
    render_tree,
    tree_of_term,
    truncate,
    unknown,
)
from oracles import (
    class_table,
    node_index,
    shift_by_transform,
    substitute_by_transform,
    unshift_free_by_transform,
    bind_fvars_by_rounds,
    check_inputs_per_member,
    bot_positions_by_queue,
    bound_var_positions_dfs,
    canon_by_refinement,
    close_subtree_recursive,
    collapsible_by_rounds,
    depth0_positions_by_layers,
    dom_positions_by_queue,
    free_index_by_scan,
    glb_by_rounds,
    glb_by_tuples,
    is_guarded_by_walks,
    is_stable_by_paths,
    loopy,
    map_graph_recursive,
    mark_unstable_recursive,
    max_bvar_indices_by_walks,
    occurs_index_recursive,
    random_graph,
    random_term,
    redex_reachability,
    redex_reachability_by_rounds,
    redex_key_by_walk,
    render_tree_recursive,
    shift_recursive,
    substitute_recursive,
    truncate_recursive,
    unguarded_to_hole_by_walks,
    unroll,
    unshift_free_recursive,
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
            assert ids(redex_reachability(rules, g)) == redex_reachability_by_rounds(rules, g)


def test_collapsible_equals_the_fixpoint():
    for g in graphs(12, 300):
        for sig in ALL_SIGS:
            assert ids(_collapsible(sig, g)) == collapsible_by_rounds(sig, g)


def test_bind_fvars_equals_the_fixpoint_version():
    originals = 0
    for g in graphs(13, 1000):
        before = ids(reachable(g))
        for mapping in ({"x": 0}, {"x": 1, "y": 0}):
            try:
                want = bind_fvars_by_rounds(g, mapping)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    bind_fvars(g, mapping)
                continue
            got = bind_fvars(g, mapping)
            assert canon(got) == canon(want)
            assert render_tree(got, ascii_only=True) == render_tree(want, ascii_only=True)
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
            assert rendered == render_tree(glb_by_tuples(sig, ts), ascii_only=True)
            outcomes.add("bot" if got.kind == HOLE else "partial" if "bot" in rendered else "total")
    assert outcomes == {"rejected", "bot", "partial", "total"}


def compare_outcome(sig, a, b):
    """``compare``'s answer with the glb rendered, or its error message."""
    try:
        leq, geq, g = compare(sig, a, b)
    except ValueError as e:
        return str(e)
    return leq, geq, render_tree(g, ascii_only=True)


def separate_outcome(sig, a, b):
    """The same from ``tree_leq`` both ways and the earlier ``glb``."""
    try:
        g = glb_by_tuples(sig, [a, b])
    except ValueError as e:
        return str(e)
    return bool(tree_leq(sig, a, b)), bool(tree_leq(sig, b, a)), render_tree(g, ascii_only=True)


def test_compare_equals_tree_leq_both_ways_and_the_glb():
    rng = random.Random(31)
    pairs = [ts for ts in glb_inputs(32, 300) if len(ts) == 2]
    # pairs drawn as for tree_leq's oracle test, some with a Cut or Unknown leaf
    for k in range(300):
        if k % 2:
            s, t = (random_graph(rng, rng.randrange(1, 10), cyclic=k % 4 == 1) for _ in "st")
            s, t = with_marker_leaves(rng, s), with_marker_leaves(rng, t)
        else:
            s, t = (tree_of_term(random_term(rng, rng.randrange(1, 12))) for _ in "st")
        pairs += [[s, t], [t, s], [s, unroll(s, 3)]]
        for sig in ALL_SIGS:
            if all(guarded_or_error(is_guarded, sig, x) is True for x in (s, t)):
                lower = truncate(sig, s, rng.randrange(6))
                pairs += [[lower, s], [lower, t], [s, lower], [lower, unroll(s, 3)]]
    counts = Counter()
    for (a, b), sig in itertools.product(pairs, ALL_SIGS):
        got = compare_outcome(sig, a, b)
        assert got == separate_outcome(sig, a, b)
        if isinstance(got, str):
            counts[got] += 1
        else:
            counts["leq", got[0]] += 1
            counts["geq", got[1]] += 1
    assert min(counts[d, v] for d in ("leq", "geq") for v in (True, False)) > 3000
    assert counts["order operations require guarded trees"] > 100
    assert counts["order operations reject Cut/Unknown leaves"] > 100


def fun_chain(length: int, leaf: str):
    """``f (f (... leaf))`` with ``length`` applications of ``f``."""
    t = fvar(leaf)
    for _ in range(length):
        t = app(fvar("f"), t)
    return t


def test_glb_of_a_long_chain():
    n = 10**4
    x, y = fun_chain(n, "x"), fun_chain(n, "y")
    # under 000 every argument edge is strict, so the x/y disagreement at
    # the bottom removes every state above it
    assert glb((0, 0, 0), [x, y]).kind == HOLE
    assert compare((0, 0, 0), x, y)[:2] == (False, False)
    # under 111 nothing is forced: the glb is the chain ending in bot
    for g in glb((1, 1, 1), [x, y]), compare((1, 1, 1), x, y)[2]:
        length = 0
        while g.kind == APP:
            assert (g.a.kind, g.a.a) == (FVAR, "f")
            g, length = g.b, length + 1
        assert length == n and g.kind == HOLE
    # the chain ending in bot is below the x chain unless bot sits at a
    # strict edge
    lower = hole()
    for _ in range(n):
        lower = app(fvar("f"), lower)
    assert compare((1, 1, 1), lower, x)[:2] == (True, False)
    assert compare((0, 0, 0), lower, x)[:2] == (False, False)
    assert compare((0, 0, 0), x, fun_chain(n, "x"))[:2] == (True, True)


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


# ---------------------------------------------------------------------------
# The walkers built on trees.transform, and _mark_unstable, against the
# recursive versions they replaced


def outcome(walk, *args):
    """The walk's result, or the type and message of its ValueError."""
    try:
        return walk(*args)
    except ValueError as e:
        return type(e), str(e)


def agree(walk, oracle, *args) -> str:
    """Assert the same outcome: a bisimilar result that renders the same, or
    the same error; returns which it was."""
    want, got = outcome(oracle, *args), outcome(walk, *args)
    if isinstance(want, tuple):
        assert got == want
        return "error"
    assert not isinstance(got, tuple), got
    assert bisimilar(got, want)
    assert render_tree(got, ascii_only=True) == render_tree(want, ascii_only=True)
    return "tree"


def test_the_free_index_of_a_class_equals_the_scan():
    classes = ClassTable()  # one table across all inputs, as in a run
    seen = Counter()
    for g in [*graphs(36, 300), *loopy(37, 100)]:
        classes.add(g)
        for n in reachable(g):
            c = classes.cls[n]
            if c >= 0:
                assert classes.free[c] == free_index_by_scan(n)
                seen[min(classes.free[c], 2)] += 1
    assert set(seen) == {-1, 0, 1, 2}


def shared_states(out, root, index, known, arg=None) -> int:
    """Assert that every node of ``out`` that the walk did not make is a
    node below ``root`` with a finite class in ``index`` whose free index
    lies below the binder depth at which ``out`` reaches it, or one that
    reaches no de Bruijn index at all, or else a node of ``known``, the
    nodes that the index held before the walk, that is the index's member
    of its class, as ``NodeIndex.node`` takes it; and that every finite
    node the walk made is such a member too.  Return the number of shared
    (node, depth) states.  The nodes below ``arg``, a substituted argument,
    are left to the check of ``shift``: unshifted, at depth 0, they may
    hold any index.  A walk from a root that reaches a cycle copies it by
    ``transform``, as does a walk that substitutes such an argument, so
    the nodes that such a walk makes are not interned."""
    cls, rep, free = index.classes.cls, index.classes.rep, index.classes.free
    interned = cls[root] >= 0 and (arg is None or cls[arg] >= 0)
    old = set(reachable(root))
    skip = set() if arg is None else set(reachable(arg))
    cap = max_bvar_index(root) + 1  # bounds the states of a cyclic out
    shared = 0
    seen = set()
    stack = [(out, 0)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        n, d = state
        if n in skip:
            continue
        c = cls[n]
        if n in old and ((c >= 0 and free[c] < d) or max_bvar_index(n) < 0):
            shared += 1
            continue
        if n in known:  # what lies below it is not the walk's
            assert c >= 0 and rep[c] is n
            continue
        assert not interned or c < 0 or rep[c] is n
        for i, child in children(n):
            stack.append((child, min(d + (i == 0), cap)))
    return shared


def test_de_bruijn_walkers_equal_the_recursive_versions():
    # shift, substitute and unshift_free run through a run's index, which
    # holds both inputs, and through a fresh index of just their own inputs;
    # each prints as the recursive copy and as the walk by transform that
    # they replaced, and has the same class as the latter, and they share
    # only the input nodes that they leave unchanged
    rng = random.Random(31)
    seen = set()
    shared = Counter()
    for g in [*graphs(32, 1000), *loopy(40, 100)]:
        arg = random_graph(rng, rng.randrange(1, 6), cyclic=rng.random() < 0.5)
        by, k = rng.randrange(3), rng.randrange(3)
        index = node_index(g, arg)
        cases = [
            (shift, shift_recursive, shift_by_transform, (g, by), g, None),
            (shift, shift_recursive, shift_by_transform, (arg, by), arg, None),
            (substitute, substitute_recursive, substitute_by_transform, (g, arg), g, arg),
            (unshift_free, unshift_free_recursive, unshift_free_by_transform, (g,), g, None),
        ]
        for walk, oracle, by_transform, args, root, skip in cases:
            roots = (root,) if skip is None else (root, skip)
            want = outcome(oracle, *args)
            old = outcome(by_transform, *args, class_table(*roots))
            for idx in (node_index(*roots), index):
                known = set(idx.classes.cls)
                got = outcome(walk, *args, idx)
                if isinstance(want, tuple):
                    assert got == want == old
                    seen.add((walk.__name__, "error"))
                    continue
                assert bisimilar(got, want)
                text = render_tree(got, ascii_only=True)
                assert text == render_tree(want, ascii_only=True) == render_tree(old, ascii_only=True)
                idx.add(got)
                idx.add(old)
                assert idx.key(got) == idx.key(old)
                seen.add((walk.__name__, "tree" if is_finite(got) else "cyclic tree"))
                if walk is shift and by == 0:
                    assert got is root
                else:
                    shared[walk.__name__] += shared_states(got, root, idx, known, skip)
        agree(close_subtree, close_subtree_recursive, g)
        found = occurs_index(g, k)
        assert found == occurs_index_recursive(g, k)
        seen.add(("occurs_index", found))
    walks = ("shift", "substitute", "unshift_free")
    assert seen == {(w, t) for w in walks for t in ("tree", "cyclic tree")} | {
        ("unshift_free", "error"),
        ("occurs_index", True),
        ("occurs_index", False),
    }
    assert set(shared) == set(walks) and min(shared.values()) > 1000, shared


def test_map_graph_equals_the_recursive_version():
    rng = random.Random(33)
    for g in graphs(34, 1000):
        nodes = reachable(g)
        swapped = set(rng.sample(nodes, rng.randrange(len(nodes) + 1)))

        def leaf_fn(n):
            if n in swapped:
                return hole()
            return fvar("w") if n.kind == FVAR else None

        agree(map_graph, map_graph_recursive, g, leaf_fn)


def test_truncate_equals_the_recursive_version():
    rng = random.Random(35)
    outcomes = set()
    for g in graphs(36, 1000):
        for sig in ALL_SIGS:
            d = rng.randrange(5)
            result = agree(truncate, truncate_recursive, sig, g, d)
            outcomes.add(result if result == "error" else f"depth {d}")
    assert outcomes == {"error"} | {f"depth {d}" for d in range(5)}


def finite_pairs(seed: int, count: int):
    """A shared DAG and an unrolled copy in which one fresh leaf may
    change: the two last candidates of a sliding-window liminf."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randrange(1, 16), cyclic=False)
        copy = unroll(g, rng.randrange(1, 4))
        old = set(reachable(g))
        fresh = [n for n in reachable(copy) if n not in old and n.kind in (BVAR, FVAR, HOLE)]
        if fresh and rng.random() < 0.7:
            n = rng.choice(fresh)
            n.kind, n.a = rng.choice([(FVAR, "z"), (BVAR, 1), (HOLE, None)])
        yield g, copy


def test_mark_unstable_equals_the_recursive_version():
    marked = 0
    for cur, prev in finite_pairs(37, 1500):
        for pair in ((cur, prev), (prev, cur)):
            agree(_mark_unstable, mark_unstable_recursive, *pair)
            marked += "?" in render_tree(_mark_unstable(*pair), ascii_only=True)
    assert 0 < marked < 3000
    assert _mark_unstable(fvar("x"), None).kind == UNKNOWN


def alternating_chains(length: int):
    """``f^length x``, ``f^length y``, ``f^length x``, ... forever."""
    while True:
        yield fun_chain(length, "x")
        yield fun_chain(length, "y")


def test_liminf_window_on_long_chains():
    n = 2000
    # under 000 every edge is strict: truncation copies whole chains, and the
    # glb of an x chain and a y chain is bot
    assert liminf_approx((0, 0, 0), alternating_chains(n), 1, 5).tree.kind == HOLE
    # under 111 with depth n + 1, the last two candidates (the x chain, then
    # the chain ending in bot) agree n deep, and fuel runs out
    got = liminf_approx((1, 1, 1), alternating_chains(n), n + 1, 2)
    assert got.fuel_exhausted
    sig = (1, 1, 1)
    x, y = fun_chain(n, "x"), fun_chain(n, "y")
    prev, cur = truncate(sig, x, n + 1), truncate(sig, glb(sig, [x, y]), n + 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * n)  # room for the oracle's recursion
    try:
        want = mark_unstable_recursive(cur, prev)
    finally:
        sys.setrecursionlimit(limit)
    assert bisimilar(got.tree, want)
    assert render_tree(got.tree, ascii_only=True) == "f (" * (n - 1) + "f ?" + ")" * (n - 1)


# ---------------------------------------------------------------------------
# Deep inputs for the walkers: a DEPTH-argument spine and a DEPTH-deep
# lambda nesting, open and closed into a cycle


def spine(n: int, leaf, closed: bool = False):
    """``f a1 ... an`` with every argument ``leaf``; closed, ``a1`` is the
    whole spine, one cycle of n - 1 function edges and an argument edge."""
    first = t = app(fvar("f"), leaf)
    for _ in range(n - 1):
        t = app(t, leaf)
    if closed:
        first.b = t
    return t


def nesting(n: int, leaf, head=None):
    """``\\x1. ... \\xn. h leaf``; without a head ``h``, the head is the
    whole nesting, one cycle of n lambda edges and a function edge."""
    body = t = app(head, leaf)
    for _ in range(n):
        t = lam(t)
    if head is None:
        body.a = t
    return t


def open_nesting(n: int, leaf):
    return nesting(n, leaf, fvar("f"))


def closed_then(n: int, first_leaf, later_leaf):
    """The closed nesting whose first unfolding has ``first_leaf`` and
    every later one ``later_leaf``: on a cycle a de Bruijn walk sees an
    escaping index only in the first round, before the depth cap."""
    return nesting(n, first_leaf, nesting(n, later_leaf))


N = DEPTH
W = fvar("w")  # the argument that the deep substitutions put in


def truncate_chain(sig):
    return lambda g: truncate(sig, g, 1)


# walker -> (the walk, a function returning (input, expected result) pairs,
# with None where the walk raises the ValueError its recursive version
# raises too)
DEEP_CASES = {
    "shift": (lambda g: shift(g, 1, node_index(g)), lambda: [
        (spine(N, bvar(1)), spine(N, bvar(2))),
        (spine(N, bvar(1), True), spine(N, bvar(2), True)),
        (open_nesting(N, bvar(N + 1)), open_nesting(N, bvar(N + 2))),
        (nesting(N, bvar(N + 1)), closed_then(N, bvar(N + 2), bvar(N + 1))),
    ]),
    "substitute": (lambda g: substitute(g, W, node_index(g, W)), lambda: [
        (spine(N, bvar(0)), spine(N, fvar("w"))),
        (spine(N, bvar(0), True), spine(N, fvar("w"), True)),
        (open_nesting(N, bvar(N)), open_nesting(N, fvar("w"))),
        (nesting(N, bvar(N)), closed_then(N, fvar("w"), bvar(N))),
    ]),
    "unshift_free": (lambda g: unshift_free(g, node_index(g)), lambda: [
        (spine(N, bvar(1)), spine(N, bvar(0))),
        (spine(N, bvar(1), True), spine(N, bvar(0), True)),
        (open_nesting(N, bvar(N + 1)), open_nesting(N, bvar(N))),
        (nesting(N, bvar(N + 1)), closed_then(N, bvar(N), bvar(N + 1))),
    ]),
    "close_subtree": (close_subtree, lambda: [
        (spine(N, bvar(1)), spine(N, fvar("_e1"))),
        (spine(N, bvar(1), True), spine(N, fvar("_e1"), True)),
        (open_nesting(N, bvar(N + 1)), open_nesting(N, fvar("_e1"))),
        (nesting(N, bvar(N + 1)), closed_then(N, fvar("_e1"), bvar(N + 1))),
    ]),
    "map_graph": (lambda g: map_graph(g, lambda n: hole() if n.kind == BVAR else None), lambda: [
        (spine(N, bvar(1)), spine(N, hole())),
        (spine(N, bvar(1), True), spine(N, hole(), True)),
        (open_nesting(N, bvar(1)), open_nesting(N, hole())),
        (nesting(N, bvar(1)), nesting(N, hole())),
    ]),
    "bind_fvars": (lambda g: bind_fvars(g, {"v": 0}), lambda: [
        (spine(N, fvar("v")), spine(N, bvar(0))),
        (spine(N, fvar("v"), True), spine(N, bvar(0), True)),
        (open_nesting(N, fvar("v")), open_nesting(N, bvar(N))),
        (nesting(N, fvar("v")), None),  # the variable occurs at unbounded depth
    ]),
    # under 101 the spine's function edges are strict, and under 011 the
    # lambda edges, so the truncation walks the whole chain at depth 0
    "truncate 101": (truncate_chain((1, 0, 1)), lambda: [
        (spine(N, bvar(1)), spine(N, hole())),
        (spine(N, bvar(1), True), spine(N, hole())),
    ]),
    "truncate 011": (truncate_chain((0, 1, 1)), lambda: [
        (open_nesting(N, bvar(1)), nesting(N, hole(), hole())),
        (nesting(N, bvar(1)), nesting(N, hole(), hole())),
    ]),
}


# the de Bruijn walkers by transform, which the walks through an index
# must print as and class with
BY_TRANSFORM = {
    "shift": lambda g: shift_by_transform(g, 1, class_table(g)),
    "substitute": lambda g: substitute_by_transform(g, W, class_table(g, W)),
    "unshift_free": lambda g: unshift_free_by_transform(g, class_table(g)),
}


@pytest.mark.parametrize("walker", sorted(DEEP_CASES))
def test_walkers_on_deep_inputs(walker):
    walk, cases = DEEP_CASES[walker]
    for g, want in cases():
        if want is None:
            with pytest.raises(ValueError, match="unbounded depth"):
                walk(g)
            continue
        got = walk(g)
        assert bisimilar(got, want)
        if walker in BY_TRANSFORM:
            old = BY_TRANSFORM[walker](g)
            assert render_tree(got, ascii_only=True) == render_tree(old, ascii_only=True)
            classes = class_table(got, old)
            assert classes.cls[got] == classes.cls[old]


def test_occurs_index_on_deep_inputs():
    for g in (spine(N, bvar(1)), spine(N, bvar(1), True)):
        assert occurs_index(g, 1) and not occurs_index(g, 0)
    # the index is found at the bottom only, after the whole nesting
    for g in (open_nesting(N, bvar(N + 1)), nesting(N, bvar(N + 1))):
        assert occurs_index(g, 1) and not occurs_index(g, 0)


# ---------------------------------------------------------------------------
# developments: one component pass in place of one walk per node


def test_unguarded_to_hole_equals_the_per_node_walks():
    changed = 0
    for g in graphs(27, 400):
        for sig in ALL_SIGS:
            want = unguarded_to_hole_by_walks(sig, g)
            got = _unguarded_to_hole(sig, g)
            assert (got is g) == (want is g)
            assert canon(got) == canon(want)
            assert render_tree(got, ascii_only=True) == render_tree(want, ascii_only=True)
            changed += got is not g
    assert changed > 100


def test_max_bvar_indices_equal_the_per_node_walks():
    for g in graphs(28, 400):
        got = {id(n): idx for n, idx in max_bvar_indices(g).items()}
        assert got == max_bvar_indices_by_walks(g)


def test_components_on_a_long_cycle():
    # one strict cycle through 10^4 applications, and off each a lambda and
    # its variable, each a component of its own under 001
    length = 10**4
    first = app(None, lam(bvar(0)))
    n = first
    for _ in range(length - 1):
        n = app(n, lam(bvar(0)))
    first.a = n
    comps = components(reachable(n), lambda i: i == 1)
    assert len(comps) == 2 * length + 1 and max(map(len, comps)) == length
    assert _unguarded_to_hole((0, 0, 1), n).kind == HOLE


def test_position_walks_equal_the_hand_written_ones(monkeypatch):
    for g in graphs(41, 200):
        for k in range(9):
            walk = list(positions(g, k))
            assert [p for p, n in walk if n.kind != HOLE] == dom_positions_by_queue(g, k)
            assert {p for p, n in walk if n.kind == HOLE} == bot_positions_by_queue(g, k)
            monkeypatch.setattr(developments, "POSITION_BOUND", k)
            assert set(_bound_var_positions(g)) == set(bound_var_positions_dfs(g, k))
        monkeypatch.undo()
        if is_finite(g):
            assert set(_bound_var_positions(g)) == set(bound_var_positions_dfs(g))
        for sig in ALL_SIGS:
            if not is_guarded(sig, g):
                continue
            strict = lambda i: sig[i] == 0
            layers = depth0_positions_by_layers(sig, g)
            assert list(positions(g, math.inf, strict)) == layers
            for k in range(9):
                assert list(positions(g, k, strict)) == [pn for pn in layers if len(pn[0]) <= k]


# ---------------------------------------------------------------------------
# One guardedness search for all of a glb's members, and is_stable's walk
# over nodes, against the member-by-member check and the walk over paths


def member_check(check, sig, ts):
    """None if the members pass, else the message of the check's error."""
    try:
        check(sig, *ts)
    except ValueError as e:
        return str(e)
    return None


def test_one_guardedness_search_keeps_each_members_message():
    looped = app(None, fvar("y"))
    looped.a = looped  # a cycle of function edges
    marked = app(fvar("y"), cut())
    shared = lam(app(bvar(0), fvar("z")))
    unguarded_then_cut = [looped, marked]
    cut_then_unguarded = [marked, looped]
    sharing = [app(shared, shared), shared, lam(shared)]
    cases = [
        unguarded_then_cut,
        cut_then_unguarded,
        sharing,
        [shared, app(shared, looped)],  # fails on a node beside shared ones
        [app(shared, unknown()), shared, looped],
    ]
    for ts in cases:
        for sig in ALL_SIGS:
            assert member_check(_check_inputs, sig, ts) == member_check(check_inputs_per_member, sig, ts)
    sig = (0, 0, 0)
    assert member_check(_check_inputs, sig, unguarded_then_cut) == "order operations require guarded trees"
    assert member_check(_check_inputs, sig, cut_then_unguarded) == "order operations reject Cut/Unknown leaves"
    assert member_check(_check_inputs, sig, sharing) is None
    with pytest.raises(ValueError, match="require guarded trees"):
        glb(sig, unguarded_then_cut)


def test_one_guardedness_search_equals_the_per_member_loop():
    rng = random.Random(51)
    pool = [with_marker_leaves(rng, g) for g in graphs(52, 100)]
    outcomes = set()
    for _ in range(500):
        # members made of shared parts, as a trace's contexts are
        ts = [
            rng.choice(pool) if rng.random() < 0.5 else app(rng.choice(pool), rng.choice(pool))
            for _ in range(rng.randrange(1, 6))
        ]
        for sig in ALL_SIGS:
            got = member_check(_check_inputs, sig, ts)
            assert got == member_check(check_inputs_per_member, sig, ts)
            outcomes.add(got)
    assert outcomes == {
        None,
        "order operations reject Cut/Unknown leaves",
        "order operations require guarded trees",
    }


def stable_outcome(walk, sig, g):
    """The verdict with its witness rendered, or the error message."""
    meaningless.clear_caches()  # so neither walk reads the other's verdicts
    try:
        v = walk(sig, g, fuel=60)
    except ValueError as e:
        return str(e)
    if v.is_no:
        prep, p, u = v.witness
        return v.value, prep, p, render_tree(u, ascii_only=True)
    return v.value, v.witness


def test_is_stable_equals_the_walk_over_paths():
    # function children that head-reduce to a lambda, below shared nodes
    heads = [r"((\x.x) (\z.z)) y", r"y (((\x.\w.x) (\z.z)) y) ((\v.v) y)"]
    extra = []
    for text in heads:
        t = parse_tree(text)
        extra += [t, app(t, t), lam(app(t, bvar(0)))]
    kinds = set()
    for g in itertools.chain(extra, graphs(53, 250)):
        for sig in ALL_SIGS:
            got = stable_outcome(is_stable, sig, g)
            assert got == stable_outcome(is_stable_by_paths, sig, g)
            if isinstance(got, tuple):
                kinds.add((got[0], bool(got[0] == "no" and got[1])))
    # stable, a depth-0 redex, and a function child that reduces to a lambda
    assert {("yes", False), ("no", False), ("no", True)} <= kinds


def test_every_state_of_is_active_and_reduces_to_lam_stays_guarded(monkeypatch):
    # is_active checks only its input for guardedness and Cut/Unknown
    # leaves; each contraction keeps both, which this checks on every state
    # that the two loops (and the reduces_to_lam runs inside is_active) reach
    real_step = meaningless.try_step
    states = []

    def recording_step(*args, **kwargs):
        step = real_step(*args, **kwargs)
        states.append(step.after)
        return step

    monkeypatch.setattr(meaningless, "try_step", recording_step)
    rng = random.Random(58)
    checked = loopy = 0
    for g in graphs(57, 150):
        # the graph under a duplicator, and applied to one, for more steps
        dup = app(lam(app(bvar(0), app(bvar(0), random_graph(rng, rng.randrange(1, 8))))), g)
        for t, sig in itertools.product([g, dup, app(g, lam(app(bvar(0), bvar(0))))], ALL_SIGS):
            if not is_guarded(sig, t):
                continue
            meaningless.clear_caches()
            states.clear()
            meaningless.is_active(sig, t, fuel=30)
            meaningless.reduces_to_lam(t, fuel=30)
            for u in states:
                assert is_guarded(sig, u)  # raises on a Cut or Unknown leaf
            checked += len(states)
            loopy += sum(not is_finite(u) for u in states)
    assert checked > 5000 and loopy > 2000


def test_is_active_keys_a_redex_as_the_naming_walk_did(monkeypatch):
    # under a strict lambda edge, is_active keys the redex subtree it
    # contracts by naming the variables bound outside its input; a finite
    # subtree whose class has no free index that high has none to name
    real_drive = meaningless.drive
    paths = Counter()
    sig = None

    def checking_drive(index, t, fuel, next_round, shifts=None, key=None):
        if shifts is None or shifts.__name__ != "redex_key":  # reduces_to_lam's
            return real_drive(index, t, fuel, next_round, shifts, key)

        def both(n, pos):
            got = shifts(n, pos)
            assert got == redex_key_by_walk(index, sig, n, pos)
            b = pos.count(0)
            c = index.classes.cls[n]
            if c < 0:
                paths["cyclic"] += 1
            elif b == 0:
                paths["no binder above"] += 1
            else:
                paths["named" if index.classes.free[c] >= b else "by class"] += 1
            return got

        return real_drive(index, t, fuel, next_round, both, key)

    monkeypatch.setattr(meaningless, "drive", checking_drive)
    rng = random.Random(58)
    # (\y. y y z) (\y. y y z) under a lambda of t, with z bound outside t
    half = lam(app(app(bvar(0), bvar(0)), bvar(2)))
    for g in [*graphs(57, 150), *loopy(59, 100)]:
        dup = app(lam(app(bvar(0), app(bvar(0), random_graph(rng, rng.randrange(1, 8))))), g)
        for t in [g, dup, app(g, lam(app(bvar(0), bvar(0)))), lam(g), lam(app(app(half, half), g))]:
            for sig in ALL_SIGS:
                if sig[0] != 0 or not is_guarded(sig, t):
                    continue
                meaningless.clear_caches()
                meaningless.is_active(sig, t, fuel=30)
    assert set(paths) == {"cyclic", "no binder above", "named", "by class"}
    assert min(paths.values()) > 20, paths


def test_is_stable_scans_a_shared_region_once():
    # x(i+1) = x(i) x(i): 2^40 depth-0 paths under 000, 41 nodes
    x = fvar("y")
    for _ in range(40):
        x = app(x, x)
    assert is_stable((0, 0, 0), x).is_yes
    # a redex at the bottom: its shortlex-least path runs down function sides
    x = app(lam(bvar(0)), fvar("y"))
    for _ in range(40):
        x = app(x, x)
    v = is_stable((0, 0, 0), x)
    assert v.is_no and v.witness[:2] == ([], (1,) * 40)
