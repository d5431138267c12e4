"""The run-scoped ``NodeIndex`` records the same facts as the whole-graph
walks it replaced, and ``run_strategy``, which keys its lasso check and
prunes its redex search through it, takes the same steps as the earlier loop
that searched and keyed the whole graph on every step."""

import random

import pytest

from ilc import rewriting
from ilc.rewriting import (
    Beta,
    BetaStrict,
    Eta,
    NodeIndex,
    Strict,
    depth0_redex,
    redexes,
    run_strategy,
)
from ilc.terms import ALL_SIGS, adepth, parse_term, render_term
from ilc.trees import (
    CUT,
    HOLE,
    UNKNOWN,
    bisimilar,
    canon,
    has_kind,
    is_finite,
    parse_tree,
    reachable,
    tree_of_term,
)
from oracles import (
    random_graph,
    random_redexy_term,
    redex_reachability_by_rounds,
    run_strategy_whole_graph,
    unroll,
)

RULES = [Beta(), Eta()] + [r(sig) for sig in ALL_SIGS for r in (Strict, BetaStrict)]


def graphs(seed: int, count: int, leaves: bool = False):
    """Random cyclic graphs, unrolled copies of them, which share the
    original's nodes below the unrolled part, shared DAGs and redex-rich
    terms; with ``leaves`` some Holes become Cut or Unknown leaves."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, rng.randrange(1, 12))
        dag = random_graph(rng, rng.randrange(1, 16), cyclic=False)
        if leaves:
            for n in reachable(g) + reachable(dag):
                if n.kind == HOLE and rng.random() < 0.5:
                    n.kind = rng.choice((CUT, UNKNOWN))
        yield g
        yield unroll(g, rng.randrange(1, 4))
        yield dag
        yield tree_of_term(random_redexy_term(rng, rng.randrange(3, 12)))


def loopy(seed: int, count: int):
    """``rec x. M`` for redex-rich terms M with x free: these often reduce
    to a lasso."""
    rng = random.Random(seed)
    for _ in range(count):
        yield parse_tree("rec x. " + render_term(random_redexy_term(rng, rng.randrange(3, 12))))


def test_index_facts_equal_the_whole_graph_walks():
    for rules in RULES:
        index = NodeIndex(rules)  # one index across all graphs, as in a run
        nodes = []
        for g in graphs(21, 30, leaves=True):
            index.add(g)
            live = redex_reachability_by_rounds(rules, g)
            for n in reachable(g):
                assert (n in index.live) == (id(n) in live)
                assert (n in index.stuck) == has_kind(n, CUT, UNKNOWN)
                assert (index.classes.cls[n] >= 0) == is_finite(n)
                nodes.append(n)
        rng = random.Random(22)
        for _ in range(2000):
            s, t = rng.choice(nodes), rng.choice(nodes)
            assert (index.key(s) == index.key(t)) == bisimilar(s, t)


def same_run(got, want):
    assert [(s.position, s.rule, s.depth) for s in got.steps] == [
        (s.position, s.rule, s.depth) for s in want.steps
    ]
    assert got.cycle_at == want.cycle_at
    assert got.stopped == want.stopped
    assert got.strategy == want.strategy
    for s, w in zip(got.steps, want.steps):
        assert bisimilar(s.before, w.before)
        assert bisimilar(s.after, w.after)
        assert bisimilar(s.context, w.context)


def test_run_strategy_equals_the_whole_graph_loop():
    runs = cycles = 0
    for t in [*graphs(23, 8), *loopy(25, 48)]:
        # on a cyclic graph the outermost redexes, and the redexes that the
        # earlier depth0-first enumerated, can number 2^max_len
        max_len = 64 if is_finite(t) else 10
        for sig in ALL_SIGS:
            for rules in (Beta(), Eta(), Strict(sig), BetaStrict(sig)):
                for strategy in ("lmo", "po", "d0"):
                    want = run_strategy_whole_graph(rules, strategy, t, 10, max_len, sig)
                    same_run(run_strategy(rules, strategy, t, 10, max_len, sig), want)
                    runs += 1
                    cycles += want.cycle_at is not None
    assert runs > 3000 and cycles > 100


def test_depth0_pick_is_the_least_of_all_redexes():
    def rank(sig, pt):
        return (adepth(sig, pt[0]), len(pt[0]), pt[0])

    picks = 0
    for g in [*graphs(24, 40, leaves=True), *loopy(26, 20)]:
        max_len = 64 if is_finite(g) else 10  # as in the run battery
        for sig in ALL_SIGS:
            for rules in (Beta(), Eta(), Strict(sig), BetaStrict(sig)):
                try:
                    every = redexes(rules, g, max_len)
                except ValueError:  # a Cut or Unknown leaf
                    with pytest.raises(ValueError, match="Cut/Unknown"):
                        depth0_redex(rules, g, sig, max_len)
                    continue
                want = min(every, key=lambda pt: rank(sig, pt)) if every else None
                assert depth0_redex(rules, g, sig, max_len) == want
                picks += want is not None
    assert picks > 1000


def test_depth0_first_on_a_cyclic_term():
    # every position of rec M. (\x.x) (M M) up to length 64 holds a redex,
    # too many to enumerate; the least one is the root
    t = parse_tree(r"rec M. (\x.x) (M M)")
    with pytest.raises(RuntimeError, match="exploration limit"):
        redexes(Beta(), t)
    tr = run_strategy(Beta(), "d0", t, 3)
    assert [s.position for s in tr.steps] == [(), (1,), (2,)]
    for s in tr.steps:  # the least redex, which a shallow enumeration finds
        assert (s.position, s.rule) == min(redexes(Beta(), s.before, 3), key=lambda pt: (len(pt[0]), pt[0]))


def test_lasso_keys_call_canon_only_for_states_that_reach_a_cycle(monkeypatch):
    calls = []
    monkeypatch.setattr(rewriting, "canon", lambda n: calls.append(n) or canon(n))
    finite = tree_of_term(parse_term(r"(\f.f (f (f y))) (\x.(\z.z) x)"))
    tr = run_strategy(Beta(), "lmo", finite, 100)
    assert tr.stopped == "normal_form" and len(tr.steps) > 3
    assert calls == []
    # the second step's contractum is the start node itself, keyed once
    loop = parse_tree(r"rec M. (\x.(\y.y) x) M")
    tr = run_strategy(Beta(), "lmo", loop, 100)
    assert tr.cycle_at == 0 and len(tr.steps) == 2 and tr.final is tr.start
    assert calls == [tr.start, tr.steps[0].after]
