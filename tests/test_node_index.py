"""The run-scoped ``NodeIndex`` records the same facts as the whole-graph
walks it replaced, its redex test answers as the ``match`` on the rule
system did, the redex search that it prunes finds what the search by
positions found, and ``run_strategy``, which keys its lasso check and
prunes its redex search through it, takes the same steps as the earlier loop
that searched and keyed the whole graph on every step.  A step taken alone
answers as the same step on a run's index does, and a step whose spines
the index builds prints what the step that copied them printed, with
every spliced node classed, interned and given its facts as it is made."""

import random
from collections import Counter

import pytest

from ilc import rewriting
from ilc.rewriting import (
    Beta,
    BetaStrict,
    BohmBot,
    Eta,
    NodeIndex,
    NotARedex,
    Strict,
    _search,
    depth0_redex,
    redex_test,
    redexes,
    run_strategy,
    step_sig,
    trace_export,
    try_step,
)
from ilc.terms import ALL_SIGS, acut, adepth, parse_term
from ilc.trees import (
    APP,
    BVAR,
    CUT,
    HOLE,
    LAM,
    UNKNOWN,
    app,
    bisimilar,
    bvar,
    canon,
    child_at,
    cut,
    fvar,
    has_kind,
    is_finite,
    lam,
    node_at,
    parse_tree,
    reachable,
    reaching,
    render_tree,
    tree_of_term,
)
from oracles import (
    free_index_by_scan,
    loopy,
    random_graph,
    random_redexy_term,
    redex_reachability,
    redex_reachability_by_rounds,
    redex_tag_by_match,
    run_strategy_whole_graph,
    search_by_positions,
    try_step_by_copy,
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


# a bottom rule whose oracle answers at once, so the searches that consult
# it per position stay cheap
BOHM = [BohmBot(sig, lambda n: n.kind == BVAR, 0) for sig in ((1, 1, 1), (0, 0, 1))]


def test_the_redex_test_equals_the_match_on_every_node():
    # with a class table of every node, as a run's index builds it (the eta
    # test reads the free indices), and without one; each graph g also in
    # the M of \x. M x, as M = g, g y and g x, y bound outside
    roots = [*graphs(27, 30, leaves=True), *loopy(30, 30)]
    roots += [lam(app(m, bvar(0))) for g in roots for m in (g, app(g, bvar(1)), app(g, bvar(0)))]
    nodes = [n for g in roots for n in reachable(g)]
    index = NodeIndex(Eta())
    for g in roots:
        index.add(g)
    for rules in RULES + BOHM:
        for test in (redex_test(rules), redex_test(rules, index.classes)):
            for n in nodes:
                assert test(n) == redex_tag_by_match(rules, n)
    # the function parts of the candidates: closed, with index 0 free, with
    # only higher indices free (scanned), and reaching a cycle (scanned)
    kinds = Counter()
    for n in set(nodes):
        if n.kind == LAM and n.a.kind == APP and n.a.b.kind == BVAR and n.a.b.a == 0:
            c = index.classes.cls[n.a.a]
            kinds["cyclic" if c < 0 else min(index.classes.free[c], 1), index.test(n)] += 1
    assert set(kinds) == {(-1, "eta"), (0, None), (1, "eta"), (1, None), ("cyclic", "eta"), ("cyclic", None)}
    assert min(kinds.values()) >= 3, kinds


def test_nested_eta_redexes_need_no_scan(monkeypatch):
    # \x1. (\x2. (... (\xn. f xn) ...) x2) x1: each lambda's function part
    # is closed, which its class records, so no lambda is scanned for index 0
    n = 2000
    t = lam(app(fvar("f"), bvar(0)))
    for _ in range(n - 1):
        t = lam(app(t, bvar(0)))
    scans = 0
    real_scan = rewriting._scan_indices

    def counting_scan(*args):
        nonlocal scans
        scans += 1
        return real_scan(*args)

    monkeypatch.setattr(rewriting, "_scan_indices", counting_scan)
    found = redexes(Eta(), t, max_len=3 * n)
    assert scans == 0
    assert len(found) == n and {tag for _, tag in found} == {"eta"}
    # a function part that holds index 0 free is no redex, which its class
    # settles too; one that holds only a higher free index is scanned
    no = lam(app(lam(app(t, bvar(1))), bvar(0)))
    assert len(redexes(Eta(), no, max_len=3 * n + 6)) == n and scans == 0
    yes = lam(lam(lam(app(app(t, bvar(2)), bvar(0)))))
    assert len(redexes(Eta(), yes, max_len=3 * n + 6)) == n + 1 and scans == 1


def search_outcome(search, *args):
    try:
        return search(*args)
    except (ValueError, RuntimeError) as e:
        return type(e), str(e)


def test_the_search_equals_the_search_by_positions():
    """The same redexes, the same node at which the limit fires, and a cut
    exactly where one more edge of bound would visit more nodes."""
    limit = 300
    compared = cuts = raised = 0
    for t in [*graphs(28, 10, leaves=True), *loopy(29, 20)]:
        for rules in RULES + BOHM:
            index = NodeIndex(rules)
            index.add(t)
            variants = [(mode, None) for mode in ("first", "outermost", "all")] + [("first", step_sig(rules))]
            for mode, sig in variants:
                for max_len in (3, 10, 64):
                    want = search_outcome(search_by_positions, rules, t, max_len, mode, sig, limit, index)
                    got = search_outcome(_search, rules, t, max_len, mode, sig, limit, index)
                    compared += 1
                    if not isinstance(want[1], int):  # raised
                        assert got == want
                        raised += 1
                        continue
                    found, explored = want
                    assert got[0] == found
                    # the limit fires at the same node
                    assert _search(rules, t, max_len, mode, sig, explored, index)[0] == found
                    with pytest.raises(RuntimeError, match="exploration limit"):
                        _search(rules, t, max_len, mode, sig, explored - 1, index)
                    cut = got[1]
                    if mode == "first" and found:
                        assert not cut
                    elif sig is None and not isinstance(rules, BohmBot):
                        if mode == "first":  # no hit: the walk of outermost
                            assert cut == _search(rules, t, max_len, "outermost", None, limit, index)[1]
                        else:
                            # a walk that no hit stops visits more nodes
                            # with one more edge of bound iff the bound cut it
                            deeper = search_outcome(search_by_positions, rules, t, max_len + 1, mode, None, limit, index)
                            assert cut == (not isinstance(deeper[1], int) or deeper[1] > explored)
                        cuts += cut
    assert compared > 10_000 and cuts > 500 and raised > 500


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
    # the runs of one start under equal rules share an index, whose memoised
    # contracta and steps must print exactly what the oracle's fresh
    # contractions print (it calls try_step without an index)
    runs = cycles = 0
    for t in [*graphs(23, 8), *loopy(25, 48)]:
        # on a cyclic graph the outermost redexes, and the redexes that the
        # earlier depth0-first enumerated, can number 2^max_len
        max_len = 64 if is_finite(t) else 10
        indexes = {}
        for sig in ALL_SIGS:
            for rules in (Beta(), Eta(), Strict(sig), BetaStrict(sig)):
                index = indexes.setdefault(rules, NodeIndex(rules))
                for strategy in ("lmo", "po", "d0"):
                    want = run_strategy_whole_graph(rules, strategy, t, 10, max_len, sig)
                    got = run_strategy(rules, strategy, t, 10, max_len, sig, index=index)
                    for s in got.steps:  # each step classed its reduct and context
                        assert index.classes.add(s.after) == index.classes.add(s.context) == ([], [])
                    same_run(got, want)
                    assert trace_export(got) == trace_export(want)
                    runs += 1
                    cycles += want.cycle_at is not None
    assert runs > 3000 and cycles > 100


def test_run_strategy_rejects_an_index_for_other_rules():
    t = parse_tree(r"(\x.x) y")
    for rules, other in (
        (Beta(), Eta()),
        (Beta(), BetaStrict((1, 1, 1))),
        (BetaStrict((0, 0, 1)), BetaStrict((1, 1, 1))),
        (Strict((1, 0, 1)), BetaStrict((1, 0, 1))),
    ):
        with pytest.raises(ValueError, match="cannot run"):
            run_strategy(rules, "lmo", t, 5, index=NodeIndex(other))
    index = NodeIndex(BetaStrict((1, 0, 1)))  # equal rules share one
    assert run_strategy(BetaStrict((1, 0, 1)), "lmo", t, 5, index=index).stopped == "normal_form"


def test_a_redex_class_is_contracted_once_per_index(monkeypatch):
    calls = []
    real = rewriting.substitute
    monkeypatch.setattr(rewriting, "substitute", lambda *args: calls.append(args) or real(*args))
    five = r"(\f.\x.f (f (f (f (f x)))))"
    t = parse_tree(f"{five} {five}")
    index = NodeIndex(Beta())
    tr = run_strategy(Beta(), "d0", t, 14, index=index)
    assert len(tr.steps) == 14 and len(calls) < 14
    # one contraction per class of redex that the run met
    classes = {index.classes.cls[node_at(s.before, s.position)] for s in tr.steps}
    assert len(calls) == len(classes) == len(index.contracta)
    # a second run of the index steps the same state nodes: it takes the
    # first run's steps and contracts nothing
    calls.clear()
    again = run_strategy(Beta(), "d0", t, 14, index=index)
    assert calls == [] and all(a is b for a, b in zip(again.steps, tr.steps, strict=True))
    # the memoised contracta print what fresh contractions print
    assert trace_export(again) == trace_export(run_strategy(Beta(), "d0", t, 14))


# the rule tags of each rule system, by its name
TAGS = {"beta": ("beta",), "eta": ("eta",), "s": ("s",), "betas": ("beta", "s"), "bohm": ("beta", "bot")}


def short_positions(t):
    """Every position of ``t`` up to length 3, and each one edge off it."""
    ps = [()]
    frontier = [((), t)]
    for _ in range(3):
        frontier = [(p + (i,), child_at(n, i)) for p, n in frontier for i in (0, 1, 2)]
        ps += [p for p, _ in frontier]
        frontier = [(p, n) for p, n in frontier if n is not None]
    return ps


def step_outcome(rules, t, p, tag=None, index=None, sig=None, step=try_step):
    """What ``try_step``, or ``step``, answers: the step's position, rule,
    depth and printed reduct and context, or the type and message of its
    error."""
    try:
        s = step(rules, t, p, tag, sig) if index is None else step(rules, t, p, tag, sig, index=index)
    except (ValueError, KeyError) as e:
        return type(e), str(e)
    return s.position, s.rule, s.depth, render_tree(s.after, ascii_only=True), render_tree(s.context, ascii_only=True)


def test_a_step_without_an_index_equals_a_step_on_a_runs_index():
    # every position up to length 3, and each one edge off the tree, with
    # the tag inferred and with each tag of the rules named, whether the
    # node is such a redex or not; one index per rule system across all
    # graphs, so bisimilar redexes of earlier graphs and tags hand their
    # memoised contracta on.  Each graph g also in the M of \x. M x, as
    # M = g and g y, y bound outside, for eta redexes
    roots = [*graphs(41, 6, leaves=True), *loopy(42, 8)]
    roots += [lam(app(m, bvar(0))) for g in roots for m in (g, app(g, bvar(1)))]
    positions = {t: short_positions(t) for t in roots}
    seen = Counter()
    for rules in RULES + BOHM:
        index = NodeIndex(rules)
        for t in roots:
            index.add(t)  # as a run adds its states
            for p in positions[t]:
                for tag in (None, *TAGS[rules.name]):
                    want = step_outcome(rules, t, p, tag)
                    assert step_outcome(rules, t, p, tag, index) == want
                    if isinstance(want[0], type):
                        seen[want[0].__name__] += 1
                        continue
                    seen[want[1]] += 1
                    step = try_step(rules, t, p, want[1], index=index)
                    assert try_step(rules, t, p, want[1], index=index) is step  # the memo
    assert set(seen) == {"beta", "eta", "s", "bot", "NotARedex", "ValueError", "KeyError"}
    assert min(seen.values()) > 5, seen


def test_a_step_equals_the_step_by_copy():
    # the spliced reduct and context print what the fresh copies print, under
    # every rule system and with each of the 8 signatures as the step's, one
    # index per rule system across all graphs, so that splices meet classes
    # that earlier graphs, signatures and steps interned
    roots = [*graphs(43, 3, leaves=True), *loopy(44, 6)]
    roots += [lam(app(m, bvar(0))) for g in roots for m in (g, app(g, bvar(1)))]
    positions = {t: short_positions(t) for t in roots}
    seen = Counter()
    for rules in RULES + BOHM:
        index = NodeIndex(rules)
        sigs = [step_sig(rules)] if isinstance(rules, (Strict, BetaStrict)) else ALL_SIGS
        for sig in sigs:
            for t in roots:
                for p in positions[t]:
                    for tag in (None, *TAGS[rules.name]):
                        want = step_outcome(rules, t, p, tag, sig=sig, step=try_step_by_copy)
                        assert step_outcome(rules, t, p, tag, index, sig) == want
                        seen[want[0].__name__ if isinstance(want[0], type) else want[1]] += 1
    assert set(seen) == {"beta", "eta", "s", "bot", "NotARedex", "ValueError", "KeyError"}
    assert min(seen.values()) > 5, seen


def spliced(sig, s):
    """The nodes that the spines of a step's reduct and context hold."""
    p, k = s.position, len(acut(sig, s.position))
    return [node_at(s.after, p[:j]) for j in range(len(p))] + [node_at(s.context, p[:j]) for j in range(k)]


def test_a_step_classes_its_spines_as_it_builds_them():
    # over runs from seeded graphs, with Cut and Unknown leaves, and loopy
    # ones, each also applied to a Cut, and to the variable of a lambda
    # above it, so that spine nodes have free indices: after each step the
    # index holds the reduct and the context, a finite spliced node is its
    # class's member, and so is each finite node that the de Bruijn walks
    # of a beta or eta contraction of a finite redex made, each of them
    # with the free index that a scan finds, and the facts of every node of
    # both are the whole-graph fixpoints
    made = Counter()
    starts = [*graphs(45, 8, leaves=True), *loopy(46, 24)]
    for t in starts + [app(t, cut()) for t in starts] + [lam(app(t, bvar(0))) for t in starts]:
        max_len = 64 if is_finite(t) else 10
        for sig in ALL_SIGS:
            for rules in (Beta(), Eta(), BetaStrict(sig)):
                index = NodeIndex(rules)
                cls, rep, free = index.classes.cls, index.classes.rep, index.classes.free
                states = set()  # the nodes of the states that the index's runs stepped
                for strategy in ("lmo", "po"):  # d0 rejects Cut/Unknown leaves
                    tr = run_strategy(rules, strategy, t, 8, max_len, sig, index=index)
                    for s in tr.steps:
                        assert index.classes.add(s.after) == ([], [])
                        assert index.classes.add(s.context) == ([], [])
                        before = set(reachable(s.before))
                        states |= before
                        for n in spliced(sig, s):
                            c = cls[n]
                            assert c < 0 or (rep[c] is n and free[c] == free_index_by_scan(n))
                            made["finite" if c >= 0 else "cyclic"] += 1
                            made["with a free index"] += c >= 0 and free[c] >= 0
                            made["from the state"] += n in before
                        # a contractum, the memo's among them, holds what the
                        # walks made and subgraphs of states stepped so far
                        if s.rule in ("beta", "eta") and cls[node_at(s.before, s.position)] >= 0:
                            for n in reachable(node_at(s.after, s.position)):
                                if n not in states:
                                    c = cls[n]
                                    assert rep[c] is n and free[c] == free_index_by_scan(n)
                                    made["made by a walk"] += 1
                                    made["with a free index"] += free[c] >= 0
                        for root in (s.after, s.context):
                            live = redex_reachability(rules, root)
                            stuck = reaching(reachable(root), lambda n: n.kind in (CUT, UNKNOWN))
                            for n in reachable(root):
                                assert (n in index.live) == (n in live)
                                assert (n in index.stuck) == (n in stuck)
                                made["stuck"] += n in stuck
    assert min(made.values()) > 100, made
    # a spine node bisimilar to a subtree of the state is that subtree
    t = parse_tree(r"g (f ((\x.x) y)) (f y)")
    s = try_step(Beta(), t, (1, 2, 2), "beta")
    assert node_at(s.after, (1, 2)) is node_at(t, (2,))


@pytest.mark.parametrize("text", [r"(\x.x x y) (\x.x x y)", r"(\f.(\x.f (x x)) (\x.f (x x))) (\s.\c.c a s)"])
def test_a_join_shares_the_steps_of_its_runs_while_they_coincide(text):
    t = parse_tree(text)
    shared = 0
    for sig in ((0, 0, 1), (1, 0, 1), (1, 1, 1)):
        for rules in (Beta(), BetaStrict(sig)):
            index = NodeIndex(rules)  # as ilc join builds it
            lmo = run_strategy(rules, "lmo", t, 30, sig=sig, index=index)
            d0 = run_strategy(rules, "d0", t, 30, sig=sig, index=index)
            alone = run_strategy(rules, "d0", t, 30, sig=sig)
            assert [s.position for s in d0.steps] == [s.position for s in alone.steps]
            assert (d0.stopped, d0.cycle_at) == (alone.stopped, alone.cycle_at)
            assert trace_export(d0) == trace_export(alone)
            k = 0  # the common prefix of the two runs
            while k < min(len(lmo.steps), len(d0.steps)) and lmo.steps[k].position == d0.steps[k].position:
                assert d0.steps[k] is lmo.steps[k]
                k += 1
            shared += k
    assert shared > 0


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
