import random
from collections import Counter

import pytest

from ilc import meaningless, rewriting
from ilc.convergence import p_limit
from ilc.developments import descendants
from ilc.rewriting import (
    Beta,
    BetaStrict,
    BohmBot,
    Eta,
    NodeIndex,
    NotARedex,
    Strict,
    drive,
    first_redex,
    outermost_redexes,
    redexes,
    rule_system,
    run_strategy,
    trace_decode,
    trace_export,
    try_step,
)
from ilc.terms import parse_term
from ilc.trees import bisimilar, node_at, parse_tree, render_tree, tree_of_term
from oracles import _ShiftDetector


def T(src):
    return tree_of_term(parse_term(src))


def R(src):
    return render_tree(parse_tree(src) if "rec" in src else T(src), ascii_only=True)


def step_render(rules, src, pos):
    return render_tree(try_step(rules, T(src), pos).after, ascii_only=True)


def test_beta_golden_steps():
    assert step_render(Beta(), r"(\x.x x) y", ()) == "y y"
    assert step_render(Beta(), r"(\x.z) y", ()) == "z"
    assert step_render(Beta(), r"z ((\x.x) y)", (2,)) == "z y"


def test_beta_avoids_capture():
    # the free y of the argument must not be bound by the inner lambda
    assert step_render(Beta(), r"(\x.\y.x) y", ()) == "\\x0.y"
    assert step_render(Beta(), r"(\x.\y.x y) (\z.y)", ()) == "\\x0.(\\x1.y) x0"


def test_eta_steps():
    assert step_render(Eta(), r"\x.y x", ()) == "y"
    with pytest.raises(NotARedex):
        try_step(Eta(), T(r"\x.x x"), ())


def test_strict_rules_depend_on_sig():
    assert step_render(Strict((1, 0, 1)), "bot y", ()) == "bot"
    assert not redexes(Strict((1, 1, 1)), T("bot y"))
    assert step_render(Strict((1, 1, 0)), "y bot", ()) == "bot"
    assert step_render(Strict((0, 1, 1)), r"\x.bot", ()) == "bot"


def test_redex_enumeration_and_order():
    t = T(r"(\x.x) ((\y.y) z)")
    ps = [p for p, _ in redexes(Beta(), t)]
    assert set(ps) == {(), (2,)}
    assert first_redex(Beta(), t)[0] == ()
    assert [p for p, _ in outermost_redexes(Beta(), t)] == [()]
    t2 = T(r"z ((\x.x) a) ((\y.y) b)")
    assert [p for p, _ in outermost_redexes(Beta(), t2)] == [(1, 2), (2,)]


def test_redexes_on_cyclic_trees_are_capped():
    r = parse_tree(r"rec M. (\x.x) M")
    ps = [p for p, _ in redexes(Beta(), r, max_len=5)]
    assert () in ps and all(len(p) <= 5 for p in ps)


def test_step_context_uses_longest_nonstrict_prefix():
    # under 001 the argument edge is the only non-strict one
    s = try_step(BetaStrict((0, 0, 1)), T(r"z ((\x.x) y)"), (2,))
    assert s.depth == 1
    assert render_tree(s.context, ascii_only=True) == "z bot"
    s2 = try_step(BetaStrict((0, 0, 1)), T(r"(\x.x) y z"), (1,))
    assert s2.depth == 0
    assert render_tree(s2.context, ascii_only=True) == "bot"


def test_lmo_normal_form():
    tr = run_strategy(Beta(), "lmo", T(r"(\x.y) ((\z.z z) (\z.z z))"), 100)
    assert tr.stopped == "normal_form"
    assert render_tree(tr.final, ascii_only=True) == "y"
    assert tr.is_closed


def test_lmo_detects_cycles():
    tr = run_strategy(Beta(), "lmo", T(r"(\x.x x) (\x.x x)"), 100)
    assert tr.stopped == "cycle"
    assert tr.cycle_at == 0
    assert len(tr.cycle_steps) == 1
    tr.check()


def test_parallel_outermost():
    t = T(r"z ((\x.x) a) ((\y.y) b)")
    tr = run_strategy(Beta(), "po", t, 100)
    assert render_tree(tr.final, ascii_only=True) == "z a b"
    assert len(tr.steps) == 2


def test_depth0_first_prefers_shallow_redexes():
    # under 001 the redex inside the argument sits at depth 1
    t = T(r"((\x.x) y) ((\z.z) w)")
    tr = run_strategy(BetaStrict((0, 0, 1)), "d0", t, 1)
    assert tr.steps[0].position == (1,)


def test_strategy_sig_override():
    tr = run_strategy(Beta(), "lmo", T(r"z ((\x.x) y)"), 10, sig=(0, 0, 1))
    assert tr.steps[0].depth == 1


def test_trace_roundtrip():
    tr = run_strategy(BetaStrict((1, 0, 1)), "lmo", T(r"(\x.x bot) y"), 100)
    doc = trace_export(tr, report={"ok": True})
    back = trace_decode(doc)
    assert back.sig == tr.sig
    assert len(back.steps) == len(tr.steps)
    assert bisimilar(back.final, tr.final)
    assert back.cycle_at == tr.cycle_at
    back.check()


def test_a_decoded_trace_without_a_stop_reason_did_not_close():
    # every reader asks the one stop reason: a doc without one is a lasso if
    # it has a tail, else a run that the fuel stopped
    doc = trace_export(run_strategy(Beta(), "lmo", T(r"(\x.x) ((\y.y) z)"), 1))
    del doc["metadata"]["stopped"]
    back = trace_decode(doc)
    assert back.stopped == "fuel" and not back.is_closed
    assert p_limit(back).fuel_exhausted
    with pytest.raises(ValueError, match="fuel-truncated"):
        descendants(back, [()])
    loop = trace_export(run_strategy(Beta(), "lmo", T(r"(\x.x x) (\x.x x)"), 5))
    del loop["metadata"]["stopped"]
    assert trace_decode(loop).stopped == "cycle"
    # a reason outside STOP_REASONS, or one that contradicts the tail
    for stopped, tail in [("halted", None), ("cycle", None), ("normal_form", {"cycle_at": 0})]:
        with pytest.raises(ValueError, match="bad stop reason"):
            trace_decode({**doc, "metadata": {"stopped": stopped}, "tail": tail})


def test_a_decoded_bohm_trace_runs_its_oracle_on_the_exported_fuel():
    sig = (0, 0, 1)
    tr = run_strategy(rule_system("bohm", sig, 3), "lmo", parse_tree(r"(\x.x x) (\x.x x) y"), 5, sig=sig)
    doc = trace_export(tr)
    assert doc["metadata"]["oracle_fuel"] == 3
    back = trace_decode(doc)
    assert isinstance(back.rules, BohmBot) and back.rules.fuel == 3
    assert back.strategy == tr.strategy == "leftmost-outermost"


def test_the_bohm_oracle_is_asked_once_per_node(monkeypatch):
    # the redex search asks about a node, contractum's check asks again, and
    # later states share nodes: the rule system answers each node once, and
    # the trace is the one that an oracle asked every time gives
    real = meaningless.in_bot_instances
    calls = Counter()

    def counted(sig, n, fuel=10_000):
        calls[n] += 1
        return real(sig, n, fuel)

    monkeypatch.setattr(meaningless, "in_bot_instances", counted)
    fuel = 20
    asked = every_time = 0
    for text in (r"(\x.x x) (\x.x x) y", r"f ((\x.x x) (\x.x x)) ((\x.x) z)", r"(\x.\y.y) ((\x.x x) (\x.x x)) z"):
        t = parse_tree(text)
        for sig in ((0, 0, 1), (1, 0, 1), (1, 1, 1)):
            for strategy in ("lmo", "po", "d0"):
                meaningless.clear_caches()
                calls.clear()
                tr = run_strategy(rule_system("bohm", sig, fuel), strategy, t, fuel, sig=sig)
                assert max(calls.values()) == 1
                asked += sum(calls.values())
                meaningless.clear_caches()
                calls.clear()
                oracle = BohmBot(sig, lambda n: meaningless.in_bot_instances(sig, n, fuel).is_yes, fuel)
                want = run_strategy(oracle, strategy, t, fuel, sig=sig)
                every_time += sum(calls.values())
                assert trace_export(tr) == trace_export(want)
    assert asked < every_time


def test_bad_strategy_and_bad_position():
    with pytest.raises(ValueError):
        run_strategy(Beta(), "innermost", T("x"), 1)
    with pytest.raises(NotARedex):
        try_step(Beta(), T("x y"), ())


def test_a_named_bottom_tag_needs_its_rule():
    # an s or bot tag contracts only a node that the rules' strictness test
    # or oracle makes a redex, as a call without the tag infers it
    xy, fbot = T("x y"), parse_tree("f bot")
    never = BohmBot((1, 1, 1), lambda n: False, 0)
    for rules, t, tag in (
        (Strict((1, 1, 1)), xy, "s"),
        (Strict((1, 1, 1)), fbot, "s"),
        (BetaStrict((0, 1, 1)), fbot, "s"),
        (Beta(), fbot, "s"),
        (never, xy, "bot"),
        (BetaStrict((0, 1, 1)), fbot, "bot"),
    ):
        with pytest.raises(NotARedex):
            try_step(rules, t, (), tag)
        with pytest.raises(NotARedex):
            try_step(rules, t, ())
    assert render_tree(try_step(Strict((1, 1, 0)), fbot, (), "s").after) == "⊥"
    always = BohmBot((1, 1, 1), lambda n: True, 0)
    assert render_tree(try_step(always, xy, (), "bot").after) == "⊥"
    with pytest.raises(NotARedex):  # bottom itself is never collapsed
        try_step(always, fbot, (2,), "bot")


# ---------------------------------------------------------------------------
# The reduction driver's contract, with scripted rounds


def scripted(*rounds):
    """A ``next_round`` that contracts the given positions, round by round,
    and then stops at a normal form."""
    todo = list(rounds)

    def next_round(cur):
        steps = []
        for p in todo.pop(0) if todo else []:
            steps.append(try_step(Beta(), cur, p))
            cur = steps[-1].after
        return steps

    return next_round


def indexed(t):
    index = NodeIndex(Beta())
    index.add(t)
    return index


def test_drive_closes_no_lasso_inside_a_round():
    omega = r"(\x.x x) (\x.x x)"
    t = T(rf"({omega}) ((\y.y) z)")
    # the round's first step leads back to t, its second away from it
    steps, stopped, cycle_at = drive(indexed(t), t, 10, scripted([(1,), (2,)]))
    assert [s.position for s in steps] == [(1,), (2,)]
    assert bisimilar(steps[0].after, t)
    assert (stopped, cycle_at) == ("normal_form", None)
    # one step per round: the same steps close a lasso at once
    steps, stopped, cycle_at = drive(indexed(t), t, 10, scripted([(1,)], [(2,)]))
    assert (len(steps), stopped, cycle_at) == (1, "cycle", 0)


def test_drive_runs_a_round_whole_past_its_fuel():
    t = T(r"z ((\x.x) a) ((\y.y) b) ((\w.w) c)")
    rounds = [(1, 1, 2), (1, 2), (2,)], [(2,)]
    steps, stopped, _ = drive(indexed(t), t, 1, scripted(*rounds))
    assert (len(steps), stopped) == (3, "fuel")
    assert render_tree(steps[-1].after, ascii_only=True) == "z a b c"
    assert drive(indexed(t), t, 0, scripted(*rounds)) == ([], "fuel", None)


def test_drive_checks_only_the_last_step_of_a_round_for_a_shift(monkeypatch):
    # C = (\x.x) (C y): contracting C leaves C one level deeper, so a step
    # that contracts it below an earlier contraction of C is a shifted
    # recurrence; round 2 has such a step, first or last
    t = parse_tree(r"((\z.z) a) (rec C. (\x.x) (C y))")
    seen = []
    real = rewriting._shifted
    monkeypatch.setattr(
        rewriting, "_shifted", lambda hist, p, k: seen.append((p, k)) or real(hist, p, k)
    )
    for second, stopped in [[(2, 1), (1,)], "normal_form"], [[(1,), (2, 1)], "shifted"]:
        index = indexed(t)
        seen.clear()
        steps, got, _ = drive(index, t, 10, scripted([(2,)], second), shifts=lambda n, _: index.key(n))
        assert got == stopped and len(steps) == 3
        # one check per round, on the subtree that its last step contracted
        assert seen == [
            (s.position, index.key(node_at(s.before, s.position))) for s in (steps[0], steps[2])
        ]
        # without the check the run ends at a normal form
        assert drive(indexed(t), t, 10, scripted([(2,)], second))[1] == "normal_form"


def test_shift_check_equals_the_detector_class():
    # rewriting._shifted against the class that the two analyses fed before
    # the driver, on seeded runs of positions and subtree keys
    rng = random.Random(20)
    hits = 0
    for _ in range(300):
        hist, det = [], _ShiftDetector()
        for _ in range(30):
            pos = tuple(rng.choice((0, 1, 2)) for _ in range(rng.randrange(5)))
            key = rng.randrange(3)
            hit = rewriting._shifted(hist, pos, key)
            assert hit == det.push(pos, key)
            if hit:  # the driver stops there; start a fresh run
                hits += 1
                hist, det = [], _ShiftDetector()
    assert hits > 1000


def test_drive_keys_states_by_the_given_key():
    t = T(r"(\x.x) ((\y.y) z)")
    keys = []
    key = lambda n: keys.append(n) or "one key"  # noqa: E731
    steps, stopped, cycle_at = drive(indexed(t), t, 10, scripted([(2,)], [()]), key=key)
    assert (len(steps), stopped, cycle_at) == (1, "cycle", 0)
    assert keys == [t, steps[0].after]
    # with the index's keys the two states differ
    assert drive(indexed(t), t, 10, scripted([(2,)], [()]))[1] == "normal_form"
