import random

import pytest

from ilc.convergence import (
    analyze,
    analyze_m_convergence,
    context_via_glb,
    p_limit,
    report_json,
    volatile_positions,
)
from ilc.rewriting import Beta, BetaStrict, Eta, Strict, rule_system, run_strategy, try_step
from ilc.terms import ALL_SIGS, parse_term, render_term
from ilc.trees import bisimilar, is_finite, is_guarded, parse_tree, render_tree, tree_of_term
from oracles import p_limit_checked, random_loopy_tree, random_redexy_term


def T(src):
    return tree_of_term(parse_term(src))


OMEGA = r"(\x.x x) (\x.x x)"


def test_closed_trace_converges_to_final():
    tr = run_strategy(Beta(), "lmo", T(r"(\x.x) y"), 100)
    rep = analyze(tr)
    assert rep.m_converges.is_yes
    assert render_tree(rep.p_limit.tree, ascii_only=True) == "y"
    assert not rep.destructive and not rep.volatile


def test_omega_is_destructive_everywhere():
    tr = run_strategy(Beta(), "lmo", T(OMEGA), 100)
    rep = analyze(tr)
    assert rep.m_converges.is_no and rep.m_converges.witness_depth == 0
    assert render_tree(rep.p_limit.tree, ascii_only=True) == "bot"
    assert rep.destructive
    assert rep.outermost_volatile == frozenset({()})


def test_buried_omega_converges_under_111():
    # the root-depth cycle sits at depth 2 under 111, so depths never grow,
    # yet the p-limit keeps the stable surroundings
    tr = run_strategy(Beta(), "lmo", T(f"y ({OMEGA})"), 100)
    rep = analyze(tr)
    assert rep.m_converges.is_no and rep.m_converges.witness_depth == 1
    assert render_tree(rep.p_limit.tree, ascii_only=True) == "y bot"
    assert not rep.destructive
    assert rep.outermost_volatile == frozenset({(2,)})


def test_volatile_positions_of_a_lasso():
    tr = run_strategy(Beta(), "lmo", T(f"y ({OMEGA})"), 100)
    vol, outer = volatile_positions(tr)
    assert vol == frozenset({(2,)})
    assert outer == vol
    with pytest.raises(ValueError):
        volatile_positions(run_strategy(Beta(), "lmo", T("x"), 10))


def test_volatile_under_strict_sig_reaches_the_root():
    # under 001 the function edge is strict, so a cycle in function position
    # has acut () and the lasso is destructive
    tr = run_strategy(BetaStrict((0, 0, 1)), "lmo", T(f"({OMEGA}) y"), 100)
    rep = analyze(tr)
    assert rep.destructive
    assert rep.volatile == frozenset({(), (1,)})
    assert render_tree(rep.p_limit.tree, ascii_only=True) == "bot"
    # the same cycle in argument position stays local
    tr2 = run_strategy(BetaStrict((0, 0, 1)), "lmo", T(f"y y ({OMEGA})"), 100)
    rep2 = analyze(tr2)
    assert not rep2.destructive
    assert rep2.volatile == frozenset({(2,)})
    assert render_tree(rep2.p_limit.tree, ascii_only=True) == "y y bot"


def test_fuel_truncated_traces_are_honest():
    # growing normal-order reduction that never cycles: N = rec-like growth
    n = T(r"(\x.x x y) (\x.x x y)")
    tr = run_strategy(Beta(), "lmo", n, 25)
    assert tr.stopped == "fuel"
    v = analyze_m_convergence(tr)
    assert v.value == "unknown" and v.diagnostic
    ap = p_limit(tr, depth=8)
    assert ap.fuel_exhausted
    assert ap.has_unknown


def test_context_via_glb_matches_recorded_context():
    cases = [
        (BetaStrict((0, 0, 1)), r"z ((\x.x) y)", (2,)),
        (BetaStrict((0, 0, 1)), r"(\x.x) y z", (1,)),
        (BetaStrict((1, 0, 1)), r"\w.(\x.x) y", (0,)),
        (BetaStrict((1, 1, 1)), r"z ((\x.x x) y)", (2,)),
    ]
    for rules, src, pos in cases:
        s = try_step(rules, T(src), pos)
        assert bisimilar(context_via_glb(rules.sig, s), s.context)


def test_report_json_shape():
    tr = run_strategy(Beta(), "lmo", T(OMEGA), 100)
    doc = report_json(tr, analyze(tr))
    assert doc["m"] == "no"
    assert doc["p_limit"] == "bot"
    assert doc["destructive"] is True
    assert doc["sig"] == "111"
    assert doc["stopped"] == "cycle"
    assert doc["volatile"] == [[]]


def test_a_run_from_a_guarded_start_stays_guarded():
    """Every state and context of a run from a guarded start is guarded, so
    ``p_limit`` checks only the start of a run's trace; from an unguarded
    start it checks every context, which may all be guarded."""

    def outcome(p_lim, tr):
        try:
            a = p_lim(tr)
        except ValueError as e:
            return ValueError, str(e)
        return render_tree(a.tree, ascii_only=True), a.fuel_exhausted

    rng = random.Random(41)
    starts = [random_loopy_tree(rng, sig) for sig in ALL_SIGS for _ in range(3)]
    starts += [parse_tree("rec x. " + render_term(random_redexy_term(rng, rng.randrange(3, 12)))) for _ in range(24)]
    runs = unguarded_contexts = guarded_contexts = 0
    for t in starts:
        max_len = 64 if is_finite(t) else 10  # as in the run battery
        for sig in ALL_SIGS:
            guarded = is_guarded(sig, t)
            for rules in (Beta(), Eta(), Strict(sig), BetaStrict(sig), rule_system("bohm", sig, 100)):
                for strategy in ("lmo", "po", "d0"):
                    try:
                        tr = run_strategy(rules, strategy, t, 20, max_len, sig)
                    except ValueError:  # the bohm oracle rejects an unguarded tree
                        assert not guarded
                        continue
                    runs += 1
                    if guarded:
                        for s in tr.steps:
                            assert is_guarded(sig, s.after) and is_guarded(sig, s.context)
                    want = outcome(p_limit_checked, tr)
                    assert outcome(p_limit, tr) == want
                    if not guarded and tr.steps and not tr.is_closed:
                        unguarded_contexts += want[0] is ValueError
                        guarded_contexts += want[0] is not ValueError
    assert runs > 5000 and unguarded_contexts > 20 and guarded_contexts > 50
