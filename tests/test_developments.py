import random

import pytest

from ilc.developments import (
    RedexSet,
    _develop_raw,
    ancestor,
    descendants,
    develop,
    joinability,
    path_labels,
    strip_join,
)
from ilc import developments
from ilc.rewriting import Beta, BetaStrict, NodeIndex, Trace, redexes, run_strategy, try_step
from ilc.terms import parse_term
from ilc.trees import bisimilar, parse_tree, render_tree, tree_of_term
from oracles import develop_raw_by_canon, random_loopy_tree, random_redexy_term


def T(src):
    return tree_of_term(parse_term(src))


OMEGA = r"(\x.x x) (\x.x x)"


def tree_positions(t, max_len):
    # positions of the defined domain: hole leaves are excluded
    from ilc.trees import HOLE, children

    out = []
    stack = [((), t)]
    while stack:
        p, n = stack.pop()
        if n.kind == HOLE:
            continue
        out.append(p)
        if len(p) < max_len:
            for i, c in children(n):
                stack.append((p + (i,), c))
    return out


def beta_trace(sig, t, positions):
    """Contract the given positions in order, as one finite trace."""
    steps = []
    cur = t
    for p in positions:
        st = try_step(BetaStrict(sig), cur, p, sig=sig)
        steps.append(st)
        cur = st.after
    return Trace(sig, BetaStrict(sig), t, steps, "normal_form")


def test_descendants_through_duplication():
    sig = (1, 1, 1)
    t = T(r"(\x.x x) (y z)")
    tr = beta_trace(sig, t, [()])
    # the z inside the argument is copied to both argument slots
    assert descendants(tr, [(2, 2)]) == frozenset({(1, 2), (2, 2)})
    # the whole argument likewise
    assert descendants(tr, [(2,)]) == frozenset({(1,), (2,)})


def test_descendants_of_erasure_and_body():
    sig = (1, 1, 1)
    t = T(r"(\x.w) (y z)")
    tr = beta_trace(sig, t, [()])
    assert descendants(tr, [(2, 1)]) == frozenset()
    assert descendants(tr, [(1, 0)]) == frozenset({()})
    # the redex node and its lambda have no descendants
    assert descendants(tr, [(), (1,)]) == frozenset()


def test_descendants_union_law():
    sig = (1, 1, 1)
    rng = random.Random(5)
    for _ in range(50):
        t = tree_of_term(random_redexy_term(rng, 8))
        tr = run_strategy(BetaStrict(sig), "lmo", t, 4)
        if tr.cycle_at is not None:
            continue
        ps = tree_positions(t, 6)
        a = {tuple(p) for p in rng.sample(ps, min(3, len(ps)))}
        b = {tuple(p) for p in rng.sample(ps, min(3, len(ps)))}
        assert descendants(tr, a | b) == descendants(tr, a) | descendants(tr, b)


def test_descendants_over_a_lasso_keep_only_stable_positions():
    sig = (1, 1, 1)
    t = T(f"y ({OMEGA})")
    tr = run_strategy(Beta(), "lmo", t, 50, sig=sig)
    assert tr.cycle_at is not None
    # the spectator y survives; anything inside the cycling argument dies
    assert descendants(tr, [(1,)]) == frozenset({(1,)})
    assert descendants(tr, [(2,)]) == frozenset()
    assert descendants(tr, [(2, 1)]) == frozenset()


def test_ancestor_inverts_descendants():
    sig = (1, 1, 1)
    rng = random.Random(6)
    checked = 0
    for _ in range(60):
        t = tree_of_term(random_redexy_term(rng, 9))
        tr = run_strategy(BetaStrict(sig), "lmo", t, 5)
        if tr.cycle_at is not None or not tr.steps:
            continue
        for p in tree_positions(tr.final, 8):
            a = ancestor(tr, p)
            assert p in descendants(tr, [a])
            checked += 1
    assert checked > 100


def test_develop_golden():
    sig = (1, 1, 1)
    t = T(r"(\x.x x) ((\z.z) a)")
    tr, result = develop(sig, RedexSet(t, [(), (2,)]))
    assert render_tree(result, ascii_only=True) == "a a"
    assert tr.stopped == "normal_form"
    # developing nothing just S-normalizes
    _, r0 = develop((1, 0, 1), RedexSet(T("bot y"), []))
    assert render_tree(r0, ascii_only=True) == "bot"


def test_develop_of_omega_is_a_single_step():
    # the redex's own copy in the contractum is not a residual of it, so
    # the complete development finishes after one step
    sig = (1, 1, 1)
    tr, result = develop(sig, RedexSet(T(OMEGA), [()]))
    assert len(tr.steps) == 1 and tr.cycle_at is None
    assert bisimilar(result, T(OMEGA))


def test_develop_rejects_bad_input():
    with pytest.raises(ValueError):
        develop((1, 1, 1), RedexSet(T("x y"), [()]))
    with pytest.raises(ValueError):
        develop((0, 1, 1), RedexSet(T(r"(\x.x) y"), [()]))  # a0=0, a1=1
    # positions that take an edge the node there does not have
    for src, p in (("zz", (1,)), (r"(\x.x) y", (0,))):
        rs = RedexSet(T(src), [p])
        for f in (develop, path_labels):
            with pytest.raises(ValueError, match=rf"no redex at position \[{p[0]}\]"):
                f((1, 1, 1), rs)


def development_outcome(develop_raw, sig, t, us, fuel):
    try:
        tr, raw = develop_raw(sig, t, set(us), fuel)
    except RuntimeError as e:
        return str(e), None
    steps = [(s.position, s.rule) for s in tr.steps]
    return (steps, tr.cycle_at, tr.stopped), raw


def test_develop_raw_equals_the_canon_keyed_loop():
    # the development driven by rewriting.drive, keyed by the class of each
    # state in one index, against its earlier loop, which ran a whole-graph
    # canon on every state; all beta redexes of seeded finite inputs and of
    # cyclic ones, at every fuel from 0 to 11
    rng = random.Random(19)
    cyclic = [parse_tree(src) for src in (
        r"rec M. (\x.x) M", r"rec M. (\x.x x) M", r"rec M. M ((\y.y) M)", r"\w. rec M. (\x.M) w",
    )]
    results = set()
    for k in range(150):
        for sig in [(0, 0, 1), (1, 0, 1), (1, 1, 1)]:
            inputs = [tree_of_term(random_redexy_term(rng, 9)), random_loopy_tree(rng, sig)]
            # a cyclic tree has redexes at every depth: those to length 8
            for t, bound in [(t, 64) for t in inputs] + [(t, 8) for t in cyclic if k == 0]:
                us = {p for p, _ in redexes(Beta(), t, bound)}
                for fuel in range(12):
                    got, got_raw = development_outcome(_develop_raw, sig, t, us, fuel)
                    want, want_raw = development_outcome(develop_raw_by_canon, sig, t, us, fuel)
                    assert got == want, (sig, render_tree(t, ascii_only=True), fuel)
                    assert (got_raw is None) == (want_raw is None)
                    assert got_raw is None or bisimilar(got_raw, want_raw)
                    results.add(got if got_raw is None else got[2])
    assert results == {"development did not finish within fuel", "normal_form"}


def test_path_labels_matches_develop():
    for sig in [(0, 0, 1), (1, 0, 1), (1, 1, 1)]:
        for src, us in [
            (r"(\x.x) y", [()]),
            (r"(\x.x x) ((\z.z) a)", [(), (2,)]),
            (r"(\x.y) (" + OMEGA + ")", [(), (2,)]),
            (OMEGA, [()]),
        ]:
            rs = RedexSet(T(src), us)
            _, want = develop(sig, rs)
            got = path_labels(sig, rs)
            assert bisimilar(got, want), (sig, src)


def test_path_labels_state_limit_boundary():
    # three path states: the root and one per occurrence of x, each of which
    # jumps into the contracted argument and reads z
    rs = RedexSet(T(r"(\x.x x) ((\y.y) z)"), [(), (2,)])
    assert render_tree(path_labels((1, 1, 1), rs, state_limit=2), ascii_only=True) == "z z"
    with pytest.raises(RuntimeError, match="^path-state graph exceeded its size limit$"):
        path_labels((1, 1, 1), rs, state_limit=1)


def test_path_labels_empty_set_is_strict_nf():
    assert render_tree(path_labels((1, 0, 1), RedexSet(T("bot y"), [])), ascii_only=True) == "bot"


def test_strip_join_finite():
    sig = (1, 1, 1)
    t = T(r"(\x.x x) ((\z.z) a)")
    long = run_strategy(BetaStrict(sig), "lmo", t, 10)
    single = try_step(BetaStrict(sig), t, (2,), sig=sig)
    bottom, top, common = strip_join(sig, long, single)
    assert render_tree(common, ascii_only=True) == "a a"
    assert bisimilar(bottom.start if bottom.steps else common, long.final) or not bottom.steps


def test_strip_join_over_a_lasso():
    sig = (1, 1, 1)
    t = T(f"y ({OMEGA})")
    long = run_strategy(BetaStrict(sig), "lmo", t, 50)
    assert long.cycle_at is not None
    single = try_step(BetaStrict(sig), t, (2,), sig=sig)
    _, _, common = strip_join(sig, long, single)
    assert render_tree(common, ascii_only=True) == "y bot"


def test_strip_join_refuses_noncanonical_sigs():
    sig = (1, 1, 0)
    t = T(r"(\x.x) y")
    long = run_strategy(BetaStrict(sig), "lmo", t, 10)
    single = try_step(BetaStrict(sig), t, (), sig=sig)
    with pytest.raises(ValueError):
        strip_join(sig, long, single)


def test_joinability_trivial_and_easy():
    sig = (1, 1, 1)
    t = T(r"(\x.y) ((\z.z) a)")
    tr1 = beta_trace(sig, t, [()])
    tr2 = beta_trace(sig, t, [(2,), ()])
    res = joinability(sig, t, tr1, tr2)
    assert res.joined
    assert render_tree(res.tree, ascii_only=True) == "y"


def test_joinability_of_omega_loops():
    sig = (1, 1, 1)
    t = T(OMEGA)
    tr1 = run_strategy(Beta(), "lmo", t, 10)
    tr2 = run_strategy(Beta(), "d0", t, 10)
    res = joinability(sig, t, tr1, tr2)
    assert res.joined
    assert render_tree(res.tree, ascii_only=True) == "bot"


@pytest.mark.parametrize(
    "text, shared",
    [
        (r"(\f.\x.f (f x)) (\f.\x.f (f (f x)))", True),
        (r"(\x.x x y) (\x.x x y)", True),
        (OMEGA + " y", True),
        (r"y ((\x.x) a) ((\z.z) b)", False),  # lmo contracts a first, d0 b
    ],
)
def test_a_join_of_one_run_takes_its_endpoint_once(monkeypatch, text, shared):
    # as ilc join runs it, on one index: a d0 run that holds the lmo run's
    # steps has its p-limit and normal form taken once, with the answer of
    # a d0 run on its own index, whose steps are other objects
    t = T(text)
    calls = []
    real = developments.p_limit
    monkeypatch.setattr(developments, "p_limit", lambda tr, *a: calls.append(tr) or real(tr, *a))
    for sig in ((0, 0, 1), (1, 0, 1), (1, 1, 1)):
        for rules in (Beta(), BetaStrict(sig)):
            index = NodeIndex(rules)
            lmo = run_strategy(rules, "lmo", t, 30, sig=sig, index=index)
            d0 = run_strategy(rules, "d0", t, 30, sig=sig, index=index)
            alone = run_strategy(rules, "d0", t, 30, sig=sig)
            assert developments._same_run(lmo, d0) == shared
            assert not developments._same_run(lmo, alone)
            calls.clear()
            got = joinability(sig, t, lmo, d0, 30)
            # the beta normaliser takes p-limits of runs of its own
            assert [tr for tr in calls if tr is lmo or tr is d0] == ([lmo] if shared else [lmo, d0])
            want = joinability(sig, t, lmo, alone, 30)
            assert (got.status, got.detail) == (want.status, want.detail)
            if got.tree is not None:
                assert render_tree(got.tree, ascii_only=True) == render_tree(want.tree, ascii_only=True)
