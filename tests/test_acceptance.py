"""End-to-end acceptance checks: golden values plus property batteries."""

import io
import json
import random

from ilc import term_distance, term_height, term_leq
from ilc.convergence import analyze_m_convergence, context_via_glb, p_limit
from ilc.developments import RedexSet, ancestor, descendants, develop, joinability, path_labels
from ilc.meaningless import bohm_tree, clear_caches, m_route_tree, strict_nf
from ilc.order import glb, tree_leq
from ilc.rewriting import Beta, BetaStrict, Trace, redexes, run_strategy, try_step
from ilc.terms import ALL_SIGS, CANONICAL_SIGS, parse_sig, parse_term
from ilc.trees import (
    CUT,
    HOLE,
    UNKNOWN,
    agree_where_defined,
    bisimilar,
    children,
    has_kind,
    hole,
    map_graph,
    parse_tree,
    render_tree,
    term_of_tree,
    tree_distance,
    tree_of_term,
    truncate,
)
from oracles import (
    enumerate_trees,
    lower_bounds,
    random_loopy_tree,
    random_redexy_term,
    random_term,
    s_normalize,
    schema_errors,
    term_leq_named,
    term_truncate,
)


def T(src):
    return tree_of_term(parse_term(src))


def R(t):
    return render_tree(t, ascii_only=True)


OMEGA = r"(\x.x x) (\x.x x)"
GROWER = r"(\x.x x y) (\x.x x y)"


def erase_cuts(t):
    return map_graph(t, lambda n: hole() if n.kind in (CUT, UNKNOWN) else None)


# ---------------------------------------------------------------------------
# Golden infinitary normal forms


def test_golden_infinitary_normal_forms():
    for sig in ALL_SIGS:
        assert R(bohm_tree(sig, T(OMEGA), 8).tree) == "bot", sig
    for s in ["001", "101"]:
        assert R(bohm_tree(parse_sig(s), T(f"({OMEGA}) y"), 8).tree) == "bot"
    assert R(bohm_tree((1, 1, 1), T(f"({OMEGA}) y"), 8).tree) == "bot y"
    assert R(bohm_tree((0, 0, 1), T(rf"\x.({OMEGA})"), 8).tree) == "bot"
    for s in ["101", "111"]:
        assert R(bohm_tree(parse_sig(s), T(rf"\x.({OMEGA})"), 8).tree) == "\\x0.bot"
    for s in ["001", "101"]:
        assert R(bohm_tree(parse_sig(s), T(GROWER), 8).tree) == "bot"
    spine = parse_tree("rec M. M y")
    for d in range(1, 17):
        got = erase_cuts(bohm_tree((1, 1, 1), T(GROWER), depth=d).tree)
        assert bisimilar(got, truncate((1, 1, 1), spine, d)), d


# ---------------------------------------------------------------------------
# The glb table


def test_glb_of_incompatible_lambdas_table():
    m1, m2 = T(r"\x.x y"), T(r"\x.y x")
    table = {"011": "\\x0.bot bot", "110": "\\x0.bot", "001": "bot"}
    for s, want in table.items():
        assert R(glb(parse_sig(s), [m1, m2])) == want, s


# ---------------------------------------------------------------------------
# Reduction contexts


def test_reduction_context_table():
    t = T(rf"(\x.x ({OMEGA})) y")
    p = (1, 0, 2)
    want_by_sig = {}
    for sig in ALL_SIGS:
        if sig[2] == 1:
            want_by_sig[sig] = "(\\x0.x0 bot) y"
        elif sig[0] == 1:
            want_by_sig[sig] = "(\\x0.bot) y"
        elif sig == (0, 1, 0):
            want_by_sig[sig] = "bot y"
        else:  # 000
            want_by_sig[sig] = "bot"
    for sig, want in want_by_sig.items():
        step = try_step(Beta(), t, p, "beta", sig=sig)
        assert R(step.context) == want, sig
        assert bisimilar(context_via_glb(sig, step), step.context), sig


def test_context_glb_definition_agrees_with_acut():
    rng = random.Random(33)
    done = 0
    while done < 1000:
        sig = rng.choice(ALL_SIGS)
        t = tree_of_term(random_redexy_term(rng, rng.randrange(4, 13)))
        rs = sorted(redexes(BetaStrict(sig), t))
        if not rs:
            continue
        p, tag = rng.choice(rs)
        step = try_step(BetaStrict(sig), t, p, tag, sig=sig)
        assert bisimilar(context_via_glb(sig, step), step.context), (sig, R(t), p)
        done += 1


# ---------------------------------------------------------------------------
# Confluence restoration


def lasso(rules, sig, t, p):
    """A one-step cycle: contract the self-reproducing redex at p forever."""
    step = try_step(rules, t, p, "beta", sig=sig)
    assert bisimilar(step.after, t)
    return Trace(sig, rules, t, [step], "cycle", cycle_at=0)


PEAKS = {
    # peak -> (inner loop position, sigs where pure beta must fail)
    rf"(\x.x y) ({OMEGA})": ((2,), ["001", "101"]),
    rf"(\x.\y.x) ({OMEGA})": ((2,), ["001"]),
    rf"(\x.y) ({OMEGA})": ((2,), []),
}


def test_strictness_rules_restore_confluence_on_peaks():
    for src, (loop_pos, failing_sigs) in PEAKS.items():
        t = T(src)
        for s in failing_sigs:
            sig = parse_sig(s)
            tr1 = run_strategy(Beta(), "lmo", t, 50, sig=sig)
            tr2 = lasso(Beta(), sig, t, loop_pos)
            res = joinability(sig, t, tr1, tr2)
            assert res.status == "failed", (src, s, res)
            tr1s = run_strategy(BetaStrict(sig), "lmo", t, 50)
            tr2s = lasso(BetaStrict(sig), sig, t, loop_pos)
            ress = joinability(sig, t, tr1s, tr2s)
            assert ress.joined and R(ress.tree) == "bot", (src, s, ress)
        sig = (1, 1, 1)
        tr1 = run_strategy(Beta(), "lmo", t, 50, sig=sig)
        tr2 = lasso(Beta(), sig, t, loop_pos)
        res = joinability(sig, t, tr1, tr2)
        assert res.joined, (src, res)


def random_trace(rng, sig, t, max_steps):
    rules = BetaStrict(sig)
    steps = []
    cur = t
    for _ in range(max_steps):
        rs = sorted(redexes(rules, cur))
        if not rs:
            break
        p, tag = rng.choice(rs)
        st = try_step(rules, cur, p, tag, sig=sig)
        steps.append(st)
        cur = st.after
    return Trace(sig, rules, t, steps, "normal_form")


def test_random_peaks_always_join():
    rng = random.Random(44)
    for s in ["001", "101", "111"]:
        sig = parse_sig(s)
        for _ in range(500):
            t = tree_of_term(random_redexy_term(rng, rng.randrange(3, 11)))
            tr1 = random_trace(rng, sig, t, rng.randrange(1, 7))
            tr2 = random_trace(rng, sig, t, rng.randrange(1, 7))
            res = joinability(sig, t, tr1, tr2, fuel=10_000)
            assert res.status != "failed", (s, R(t))


# ---------------------------------------------------------------------------
# Development oracle equivalence (exhaustive)


def test_develop_equals_path_labels_exhaustively():
    from itertools import combinations

    for t in enumerate_trees(8):
        beta_ps = sorted(
            p for p, tag in redexes(BetaStrict((1, 1, 1)), t) if tag == "beta"
        )
        subsets = [[]]
        for r in range(1, len(beta_ps) + 1):
            subsets.extend(list(c) for c in combinations(beta_ps, r))
        for s in ["001", "101", "111"]:
            sig = parse_sig(s)
            for us in subsets:
                rs = RedexSet(t, us)
                _, op = develop(sig, rs)
                den = path_labels(sig, rs)
                assert bisimilar(op, den), (s, R(t), us)


# ---------------------------------------------------------------------------
# Descendant algebra


def dom_positions(t, max_len=10):
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


def test_descendant_algebra_laws():
    rng = random.Random(55)
    sig = (1, 1, 1)
    done = 0
    while done < 1000:
        t = tree_of_term(random_redexy_term(rng, rng.randrange(4, 10)))
        tr = random_trace(rng, sig, t, rng.randrange(1, 5))
        if not tr.steps:
            continue
        ps = dom_positions(t, 8)
        a = frozenset(rng.sample(ps, min(len(ps), rng.randrange(1, 4))))
        b = frozenset(rng.sample(ps, min(len(ps), rng.randrange(1, 4))))
        # union
        assert descendants(tr, a | b) == descendants(tr, a) | descendants(tr, b)
        # disjointness
        if not (a & b):
            assert not (descendants(tr, a) & descendants(tr, b))
        # composition over concatenation
        k = rng.randrange(len(tr.steps) + 1)
        first = Trace(sig, tr.rules, t, tr.steps[:k], "normal_form")
        second = Trace(sig, tr.rules, first.final, tr.steps[k:], "normal_form")
        assert descendants(tr, a) == descendants(second, descendants(first, a))
        # unique ancestors with label preservation
        final_ps = dom_positions(tr.final, 8)
        for p in rng.sample(final_ps, min(len(final_ps), 3)):
            anc = ancestor(tr, p)
            owners = [q for q in ps if p in descendants(tr, [q])]
            assert owners == [anc] or (anc in owners and len(owners) == 1)
            from ilc.trees import node_at

            x, y = node_at(t, anc), node_at(tr.final, p)
            assert x.kind == y.kind
            if x.kind == "fvar":
                assert x.a == y.a
        done += 1


# ---------------------------------------------------------------------------
# Order and metric laws


def test_order_and_metric_laws():
    rng = random.Random(66)
    for _ in range(1000):
        sig = rng.choice(ALL_SIGS)
        a = random_term(rng, rng.randrange(1, 8))
        b = random_term(rng, rng.randrange(1, 8))
        c = random_term(rng, rng.randrange(1, 8))
        ta, tb, tc = map(tree_of_term, (a, b, c))
        # ultrametric laws, both levels
        assert term_distance(sig, a, c) <= max(
            term_distance(sig, a, b), term_distance(sig, b, c)
        )
        assert tree_distance(sig, ta, tc) <= max(
            tree_distance(sig, ta, tb), tree_distance(sig, tb, tc)
        )
        # partial order laws
        assert term_leq(sig, a, a)
        lab = term_leq(sig, a, b)
        if lab and term_leq(sig, b, c):
            assert term_leq(sig, a, c)
        # the named term order and the tree order agree
        assert term_leq_named(sig, a, b) == bool(tree_leq(sig, ta, tb))
        # height monotonicity
        if lab:
            assert term_height(sig, a) <= term_height(sig, b)
        # truncation monotonicity
        d = rng.randrange(0, 5)
        assert term_leq(sig, term_truncate(sig, a, d), term_truncate(sig, a, d + 1))
        assert term_leq(sig, term_truncate(sig, a, d), a)


def test_glb_against_brute_force_lower_bounds():
    rng = random.Random(67)
    for _ in range(120):
        sig = rng.choice(ALL_SIGS)
        a = random_term(rng, rng.randrange(1, 6))
        b = random_term(rng, rng.randrange(1, 6))
        g = glb(sig, [tree_of_term(a), tree_of_term(b)])
        assert tree_leq(sig, g, tree_of_term(a))
        assert tree_leq(sig, g, tree_of_term(b))
        gt = term_of_tree(g)
        for x in lower_bounds(sig, a):
            if term_leq_named(sig, x, b):
                assert term_leq_named(sig, x, gt), (sig, a, b, x)


# ---------------------------------------------------------------------------
# Convergence correspondence on lassos


def in_dom_bot(t, p):
    n = t
    for i in p:
        if n.kind == HOLE:
            return True
        nxt = None
        for j, c in children(n):
            if j == i:
                nxt = c
        if nxt is None:
            return False
        n = nxt
    return n.kind == HOLE


def test_lasso_limits_and_volatility():
    rng = random.Random(77)
    for sig in ALL_SIGS:
        lassos = 0
        closed = 0
        attempts = 0
        while lassos < 100 and attempts < 4000:
            attempts += 1
            t = random_loopy_tree(rng, sig)
            tr = run_strategy(BetaStrict(sig), rng.choice(["lmo", "po", "d0"]), t, 40)
            if tr.stopped == "normal_form":
                if closed < 100:
                    assert bisimilar(p_limit(tr).tree, tr.final)
                    closed += 1
                continue
            if tr.cycle_at is None:
                continue
            lassos += 1
            from ilc.convergence import volatile_positions

            _, outer = volatile_positions(tr)
            limit = p_limit(tr).tree
            for q in outer:
                assert in_dom_bot(limit, q), (sig, R(t), q)
            if tr.cycle_steps:
                assert analyze_m_convergence(tr).is_no
        assert lassos == 100, sig


# ---------------------------------------------------------------------------
# Route cross-validation


def hole_free_corpus(rng, n):
    out = []
    while len(out) < n:
        t = random_redexy_term(rng, rng.randrange(2, 10))
        if "bot" not in __import__("ilc.terms", fromlist=["render_term"]).render_term(
            t, ascii_only=True
        ):
            out.append(tree_of_term(t))
    return out


def test_two_normalization_routes_agree():
    rng = random.Random(88)
    corpus = hole_free_corpus(rng, 50)
    for s in ["001", "101", "111"]:
        sig = parse_sig(s)
        for t in corpus:
            ap = bohm_tree(sig, t, depth=10)
            bp = m_route_tree(sig, t, depth=10)
            assert agree_where_defined(ap.tree, bp.tree) is not False, (s, R(t))


def test_the_paper_route_reaches_the_bohm_like_tree_at_normal_forms():
    # in 001, 101 and 111, beta plus the strictness rules, run
    # parallel-outermost with no bottom rule, ends in the Bohm-like tree;
    # lassos are only counted, since po closes some in the middle of a round
    stops = {"normal_form": 0, "cycle": 0}
    for s in ["001", "101", "111"]:
        sig = parse_sig(s)
        for seed in range(250):
            t = random_loopy_tree(random.Random(seed), sig)
            tr = run_strategy(BetaStrict(sig), "po", t, 300, sig=sig)
            stops[tr.stopped] = stops.get(tr.stopped, 0) + 1
            if tr.stopped != "normal_form":
                continue
            got = strict_nf(sig, tr.final)
            want = bohm_tree(sig, t, 16, 300).tree
            if has_kind(want, CUT, UNKNOWN):
                assert agree_where_defined(got, want) is not False, (s, seed)
            else:
                assert bisimilar(got, want), (s, seed)
    assert stops["normal_form"] >= 400 and stops["cycle"] > 0, stops


def test_a_normal_form_stop_leaves_no_redex_past_the_position_bound():
    # a search that the position bound cut is no normal form: whenever a run
    # stops at one, an unbounded search of the finite final tree finds none
    t = T(GROWER)
    for sig in [(0, 0, 1), (1, 1, 1)]:
        tr = run_strategy(Beta(), "lmo", t, 300, sig=sig)
        assert tr.stopped == "bound" and analyze_m_convergence(tr).value == "unknown"
        assert "position bound" in analyze_m_convergence(tr).diagnostic
        assert p_limit(tr).fuel_exhausted
    ap = m_route_tree((1, 1, 1), t, 16, 300)
    assert ap.fuel_exhausted and has_kind(ap.tree, UNKNOWN)
    rng = random.Random(5)
    for _ in range(150):
        sig = rng.choice(ALL_SIGS)
        t = random_loopy_tree(rng, sig)
        for rules in (Beta(), BetaStrict(sig)):
            tr = run_strategy(rules, rng.choice(["lmo", "po", "d0"]), t, 100, sig=sig)
            if tr.stopped == "normal_form":
                assert not redexes(rules, tr.final, 10**6), (sig, R(t))


# ---------------------------------------------------------------------------
# S-normal forms, exhaustively


def test_strict_nf_exhaustive_all_sigs():
    for t in enumerate_trees(8):
        term = term_of_tree(t)
        for sig in ALL_SIGS:
            got = strict_nf(sig, t)
            assert bisimilar(got, tree_of_term(s_normalize(sig, term))), (sig, R(t))
            assert bisimilar(strict_nf(sig, got), got)


# ---------------------------------------------------------------------------
# CLI json output validates against the shipped schema


def test_cli_trace_json_validates_against_schema():
    from ilc.cli import main

    for argv in [
        ["trace", "--format", "json", OMEGA],
        ["trace", "--format", "json", "--sig", "101", "--rules", "betas", r"(\x.x y) bot"],
        ["trace", "--format", "json", r"(\x.x) y"],
    ]:
        out = io.StringIO()
        code = main(argv, out=out, err=io.StringIO())
        assert code in (0, 2)
        doc = json.loads(out.getvalue())
        assert not schema_errors(doc), argv
