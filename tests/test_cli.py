import argparse
import contextlib
import io
import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracles
from ilc import cli, convergence, meaningless
from ilc.cli import main
from ilc.rewriting import STOP_REASONS, rule_system, run_strategy, trace_decode
from ilc.terms import ALL_SIGS, sig_str
from ilc.trees import bisimilar, is_guarded, parse_tree, render_tree


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


OMEGA = r"(\x.x x) (\x.x x)"
GROWER = r"(\x.x x y) (\x.x x y)"


def test_tree_basic():
    code, out, _ = run("tree", "--ascii", r"(\x.x) y")
    assert code == 0 and out.strip() == "y"


def test_tree_of_omega():
    code, out, _ = run("tree", "--ascii", OMEGA)
    assert code == 0 and out.strip() == "bot"


def test_tree_cut_leaves_set_exit_code():
    code, out, _ = run("tree", "--ascii", "--depth", "2", "rec M. M y")
    assert code == 2
    assert "..." in out


def test_tree_json():
    code, out, _ = run("tree", "--format", "json", "--sig", "101", r"\x.(" + OMEGA + ")")
    doc = json.loads(out)
    assert code == 0
    assert doc["tree"] == "\\x0.bot"
    assert doc["sig"] == "101"
    assert doc["fuel_exhausted"] is False


def test_trace_text_and_json():
    code, out, _ = run("trace", "--ascii", OMEGA)
    assert code == 0
    assert "stopped: cycle" in out
    assert "p-limit: bot" in out
    code, out, _ = run("trace", "--format", "json", OMEGA)
    doc = json.loads(out)
    assert doc["tail"] == {"cycle_at": 0}
    assert doc["report"]["destructive"] is True


def test_trace_strict_rules():
    code, out, _ = run("trace", "--ascii", "--sig", "101", "--rules", "strict", "bot y")
    assert code == 0
    assert "stopped: normal_form" in out


def test_dist_and_order():
    code, out, _ = run("dist", "x y", "x z")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run("order", "--ascii", "x bot", "x y")
    assert code == 0
    assert "left <= right: True" in out
    assert "glb: x bot" in out


def test_join_counterexample_peak():
    code, out, _ = run("join", "--ascii", "--sig", "101", r"(\x.x y) (" + OMEGA + ")")
    assert code == 0
    assert out.strip() == "joined: bot"


def test_dev_subcommand():
    code, out, _ = run("dev", "--ascii", "--redexes", "e,2", r"(\x.x x) ((\z.z) a)")
    assert code == 0
    assert "develop: a a" in out
    assert "agree: True" in out
    code, out, _ = run("dev", "--ascii", "--all", r"(\x.x) ((\z.z) a)")
    assert code == 0 and "develop: a" in out


def test_join_json_prints_ascii():
    code, out, _ = run("join", "--unicode", "--format", "json", "--sig", "001", f"f ({OMEGA})")
    assert code == 0 and json.loads(out)["tree"] == "f bot" and "\\u" not in out


def test_each_call_starts_from_empty_analysis_state():
    code, out, _ = run("tree", "--ascii", f"f ({OMEGA})")
    assert code == 0 and out == "f bot\n"
    assert meaningless._index is not None
    assert meaningless._whnf_cache and meaningless._active_cache
    # at depth 0 the answer is a Cut leaf, found without any analysis
    code, out, _ = run("tree", "--ascii", "--depth", "0", "--sig", "001", r"(\x.x) z")
    assert code == 2 and out == "...\n"
    assert meaningless._index is None
    assert not meaningless._whnf_cache and not meaningless._active_cache


def test_exit_codes():
    code, _, err = run("tree", "x ((")
    assert code == 1 and "parse error" in err
    code, _, err = run("tree", "--sig", "21", "x")
    assert code == 3
    code, _, err = run("tree", "--depth", "-1", "x")
    assert code == 3
    # a redex position that takes an edge the node there does not have
    for p, term in (("1", "zz"), ("0", r"(\x.x) y")):
        code, out, err = run("dev", "--redexes", p, term)
        assert (code, out, err) == (3, "", f"ilc: no redex at position [{p}]\n")
    code, _, _ = run("frobnicate", "x")
    assert code == 3
    # unguarded input for the signature
    code, _, err = run("tree", "--sig", "000", "rec M. M y")
    assert code == 1


def test_budget_and_limit_errors_exit_3():
    code, out, err = run("dev", "--fuel", "0", "--all", r"(\x.x) a")
    assert (code, out, err) == (3, "", "ilc: development did not finish within fuel\n")
    # every position up to the search bound holds a redex: too many to list
    code, out, err = run("dev", "--all", r"rec M. (\x.x) (M M)")
    assert (code, out, err) == (3, "", "ilc: redex search exceeded its exploration limit\n")
    # the outermost redexes branch at every unfolding: 2, 112, 122, ... up to
    # the search bound, exponentially many positions
    code, out, err = run("trace", "--strategy", "po", "--fuel", "3", r"rec M. M M ((\x.x) y)")
    assert (code, out, err) == (3, "", "ilc: redex search exceeded its exploration limit\n")
    # the bound variable of the redex at e sits in a branching cycle: its
    # occurrences up to the position bound are exponentially many
    code, out, err = run("dev", "--redexes", "e,2", r"(\x. rec M. M (M x)) ((\y.y) z)")
    assert (code, out) == (3, "") and err.startswith("ilc: ")


def test_depth0_first_on_a_cyclic_term():
    # depth0-first picks the least redex without listing all of them
    code, out, err = run("trace", "--ascii", "--strategy", "d0", "--fuel", "3", r"rec M. (\x.x) (M M)")
    assert code == 2 and err == ""
    steps = [line.split()[:4] for line in out.splitlines()[:3]]
    assert steps == [["0", "beta", "at", "e"], ["1", "beta", "at", "1"], ["2", "beta", "at", "2"]]
    assert "stopped: fuel" in out
    code, out, err = run("join", "--ascii", "--fuel", "3", r"rec M. (\x.x) (M M)")
    assert (code, out, err) == (2, "unknown\n", "")


@pytest.mark.parametrize("args", [[OMEGA], ["--strategy", "po", r"(\x.x) y"]])
def test_a_run_that_takes_no_step_settles_nothing(args):
    # the fuel stops the run before its first step: neither limit is known
    code, out, _ = run("trace", "--ascii", "--fuel", "0", *args)
    assert (code, out) == (2, "stopped: fuel\nm-convergence: unknown\np-limit: ?\n")
    code, out, _ = run("trace", "--format", "json", "--fuel", "0", *args)
    doc = json.loads(out)
    assert code == 2 and doc["steps"] == [] and doc["metadata"]["stopped"] == "fuel"
    assert (doc["report"]["m"], doc["report"]["p_limit"]) == ("unknown", "?")


def test_a_run_cut_at_the_position_bound_is_no_normal_form():
    # lmo finds no redex within the position bound, yet the head redex remains
    for sig in ["001", "111"]:
        code, out, _ = run("trace", "--ascii", "--sig", sig, "--fuel", "300", GROWER)
        assert code == 2 and "stopped: bound\nm-convergence: unknown\n" in out
        code, out, _ = run("trace", "--format", "json", "--sig", sig, "--fuel", "300", GROWER)
        doc = json.loads(out)
        assert code == 2 and doc["metadata"]["stopped"] == "bound" and not oracles.schema_errors(doc)
    for rules in ["beta", "betas"]:
        code, out, _ = run("join", "--ascii", "--rules", rules, "--sig", "001", "--fuel", "300", GROWER)
        assert (code, out) == (2, "unknown\n")


def test_dev_all_refuses_a_redex_past_the_position_bound():
    def nested(n):
        return "(\\x.x) (" * n + "y" + ")" * n

    code, out, _ = run("dev", "--ascii", "--all", nested(64))
    assert code == 0 and out.startswith("develop: y\n")
    for n in [66, 100]:
        code, out, err = run("dev", "--ascii", "--all", nested(n))
        assert (code, out, err) == (3, "", "ilc: a beta redex lies past the position bound 64\n")


def test_dev_all_refuses_a_cyclic_term_with_a_redex_past_the_position_bound():
    # a redex on every turn of the cycle: the development within the bound
    # would keep (\x.x) y below depth 64
    code, out, err = run("dev", "--ascii", "--all", r"rec M. f ((\x.x) y) M")
    assert (code, out, err) == (3, "", "ilc: a beta redex lies past the position bound 64\n")
    # a cycle that holds no redex cuts nothing
    code, out, _ = run("dev", "--ascii", "--all", r"f ((\x.x) y) (rec M. g M)")
    assert code == 0 and out.startswith("develop: f y (rec M0. g M0)\n")


def test_a_join_over_runs_that_take_no_step_is_unknown():
    code, out, _ = run("join", "--ascii", "--rules", "beta", "--fuel", "0", r"(\x.x) y")
    assert (code, out) == (2, "unknown\n")
    code, out, _ = run("join", "--format", "json", "--rules", "beta", "--fuel", "0", r"(\x.x) y")
    assert code == 2 and json.loads(out)["status"] == "unknown"


def test_schema_ships_with_the_package():
    assert oracles.TRACE_SCHEMA["properties"]["sig"]["pattern"] == "^[01]{3}$"


def test_the_schema_check_rejects_planted_faults():
    _, out, _ = run("trace", "--format", "json", "--fuel", "3", r"(\x.x x) ((\y.y) z)")
    good = json.loads(out)
    assert not oracles.schema_errors(good) and good["steps"]
    plants = {
        "sig": lambda d: d.update(sig="121"),
        "rule": lambda d: d["steps"][0].update(rule="delta"),
        "depth": lambda d: d["steps"][0].update(depth=-1),
        "stop reason": lambda d: d["metadata"].update(stopped="halted"),
        "tail": lambda d: d.update(tail={"cycle_at": True}),
    }
    for what, plant in plants.items():
        bad = json.loads(out)
        plant(bad)
        assert len(oracles.schema_errors(bad)) == 1, what
    with pytest.raises(ValueError, match="unchecked schema keywords"):
        oracles.schema_errors(good, {"type": "object", "additionalProperties": False})
    # the schema's stop reasons are the ones trace_decode accepts
    assert oracles.TRACE_SCHEMA["properties"]["metadata"]["properties"]["stopped"]["enum"] == list(STOP_REASONS)


def test_trace_bohm_oracle_uses_the_fuel_flag(monkeypatch):
    fuels = []
    real = meaningless.in_bot_instances

    def spy(sig, t, fuel=10_000):
        fuels.append(fuel)
        return real(sig, t, fuel)

    monkeypatch.setattr(meaningless, "in_bot_instances", spy)
    code, out, _ = run("trace", "--ascii", "--rules", "bohm", "--fuel", "7", "x y")
    assert code == 0 and "stopped: normal_form" in out
    assert fuels and set(fuels) == {7}


ROUND_TRIP_TERMS = [
    OMEGA,
    f"({OMEGA}) y",
    r"(\x.x x y) (\x.x x y)",
    r"(\x.x x) ((\y.y) z)",
    r"\x.(\z.\w.z w) x",
    r"\x.y (\w.bot w) x",
    "bot (y bot)",
    "rec M. (\\x.x) M",
]


@pytest.mark.parametrize("rules", ["beta", "eta", "strict", "betas", "bohm"])
def test_every_exported_trace_decodes_to_its_run(rules):
    # ilc trace --format json, decoded, is the run that made it, under every
    # strategy and signature; a bohm trace carries its oracle's fuel
    rng = random.Random(21)
    for sig, strategy in itertools.product(ALL_SIGS, ["lmo", "po", "d0"]):
        sig_text = sig_str(sig)
        loopy = [render_tree(oracles.random_loopy_tree(rng, sig), ascii_only=True) for _ in range(6)]
        for term in ROUND_TRIP_TERMS + loopy:
            t = parse_tree(term)
            if not is_guarded(sig, t):
                continue
            argv = ["trace", "--format", "json", "--rules", rules, "--strategy", strategy,
                    "--sig", sig_text, "--fuel", "6", term]
            code, out, _ = run(*argv)
            assert code in (0, 2), (argv, out)
            assert not oracles.schema_errors(json.loads(out)), argv
            back = trace_decode(json.loads(out))
            back.check()
            want = run_strategy(rule_system(rules, sig, 6), strategy, t, 6, sig=sig)
            assert back.sig == sig and back.rules == want.rules
            assert bisimilar(back.start, want.start) and back.cycle_at == want.cycle_at
            assert back.stopped == want.stopped
            assert len(back.steps) == len(want.steps)
            for a, b in zip(back.steps, want.steps):
                assert (a.position, a.rule, a.depth) == (b.position, b.rule, b.depth)
                for x, y in ((a.before, b.before), (a.after, b.after), (a.context, b.context)):
                    assert bisimilar(x, y)
    if rules == "bohm":
        # the decoded oracle runs on the exported fuel: Omega is meaningless
        # with 5 steps and undetermined with none
        for fuel, verdict in [(0, False), (5, True)]:
            _, out, _ = run("trace", "--format", "json", "--rules", "bohm", "--fuel", str(fuel), "x")
            doc = json.loads(out)
            assert doc["metadata"]["oracle_fuel"] == fuel
            assert trace_decode(doc).rules.oracle(parse_tree(OMEGA)) is verdict


def test_stack_and_memory_exhaustion_exit_with_code_3(monkeypatch):
    for error in (RecursionError, MemoryError):
        def fail(*args, **kwargs):
            raise error("too deep")

        monkeypatch.setattr(meaningless, "_bohm_tree", fail)
        code, out, err = run("tree", "x")
        assert code == 3 and out == ""
        assert err.startswith("ilc: ") and error.__name__ in err


def test_tree_checks_its_input_once(monkeypatch):
    calls = []
    real = is_guarded

    def spy(sig, t):
        calls.append(t)
        return real(sig, t)

    monkeypatch.setattr(cli, "is_guarded", spy)
    monkeypatch.setattr(meaningless, "is_guarded", spy)
    code, out, _ = run("tree", "--ascii", "--sig", "101", r"\x.x (\y.(\z.z z) (\z.z z)) (\w.w x)")
    assert (code, out, len(calls)) == (0, "\\x0.x0 (\\x1.bot) (\\x1.x1 x0)\n", 1)
    # an unguarded input is still refused before any analysis
    code, _, err = run("tree", "--sig", "000", "rec M. M y")
    assert code == 1 and "not guarded" in err and len(calls) == 2


def test_deeply_nested_input_never_escapes_the_exit_codes():
    code, _, err = run("tree", "(" * 400 + "x" + ")" * 400)
    assert code in (0, 3)
    if code == 3:
        assert err.startswith("ilc: ")
    # the parser keeps an explicit stack, so no nesting depth overflows it
    parens = "(" * 10**4 + "x" + ")" * 10**4
    for argv in [("tree",), ("trace",), ("order", parens), ("join",), ("dev", "--all")]:
        code, out, err = run(*argv, "--ascii", parens)
        assert code == 0 and err == "", argv
    nested = "f (" * 10**4 + "x" + ")" * 10**4
    for argv in [("tree", nested), ("order", nested, nested)]:
        code, out, err = run(*argv)
        assert code in (0, 2) and err == "", argv[0]


def test_seeded_tree_and_trace_keep_the_cli_contract():
    # seeded loopy terms under every signature, each under tree and under a
    # trace with a seeded rule system and strategy, in text and in JSON
    rng = random.Random(9)
    flags = ("--ascii", "--depth", "6", "--fuel", "150")
    codes = Counter()
    for k in range(200):
        sig = ALL_SIGS[k % len(ALL_SIGS)]
        term = render_tree(oracles.random_loopy_tree(rng, sig), ascii_only=True)
        common = (*flags, "--sig", sig_str(sig))
        rules = ("--rules", rng.choice(("beta", "eta", "strict", "betas", "bohm")))
        strategy = ("--strategy", rng.choice(("lmo", "po", "d0")))
        for argv in [("tree", *common), ("trace", *common, *rules, *strategy)]:
            code, text, err = run(*argv, term)
            json_code, doc, json_err = run(*argv, "--format", "json", term)
            assert code == json_code and 0 <= code <= 3, (argv, term)
            assert "Traceback" not in err + json_err, (argv, term)
            codes[argv[0], code] += 1
            if code in (1, 3):  # an error: no answer to compare
                continue
            doc = json.loads(doc)
            if argv[0] == "trace":
                report = doc["report"]
                stopped, m, p_limit = text.splitlines()[-3:]
                assert stopped.split()[:2] == ["stopped:", report["stopped"]], (argv, term)
                assert (m, p_limit) == (f"m-convergence: {report['m']}", f"p-limit: {report['p_limit']}")
                continue
            assert doc["tree"] + "\n" == text, (argv, term)
            if code == 0:  # a normal form: normalising it again prints it
                assert run(*argv, doc["tree"]) == (0, text, ""), (argv, term)
    assert {c for _, c in codes} >= {0, 2}, codes
    assert codes["tree", 0] > 50 and codes["trace", 0] > 50, codes


def test_dev_all_on_a_long_argument_spine():
    # the S-normalization and the path-label build copy the whole spine; the
    # strict-cycle check and the path states' index caps take one pass each
    for length, sig in ((1000, "111"), (10**4, "111"), (10**4, "001")):
        spine = "f" + " z" * length
        code, out, err = run("dev", "--all", "--ascii", "--sig", sig, spine)
        assert code == 0 and err == ""
        assert out == f"develop: {spine}\npath labels: {spine}\nagree: True\n"


def test_tree_on_a_long_argument_spine():
    # under 111 every function side is closed off and normalized one level
    # down, so the spine is copied at each of the 16 levels
    code, out, err = run("tree", "--ascii", "f" + " z" * 10**4)
    assert code == 2 and err == ""
    assert out == "... ..." + " z" * 15 + "\n"


def test_strict_function_edges_on_a_long_argument_spine():
    # a strict function edge puts the whole spine in the depth-0 region,
    # which bohm_tree copies with an explicit stack
    spine = "f" + " z" * 10**4
    for sig in ("001", "101"):
        code, out, err = run("tree", "--ascii", "--sig", sig, spine)
        assert (code, out, err) == (0, spine + "\n", ""), sig
    spine = "f" + " z" * 1000
    code, out, err = run("join", "--ascii", "--sig", "001", spine)
    assert (code, out, err) == (0, f"joined: {spine}\n", "")


def test_tree_keeps_free_variables_named_like_its_binders():
    for sig in ("111", "101", "001"):
        for term, want in [
            (r"\x. y (__b0 x)", r"\x0.y (__b0 x0)"),
            (r"\x. __b (__b_0 x)", r"\x0.__b (__b_0 x0)"),
        ]:
            code, out, _ = run("tree", "--ascii", "--sig", sig, term)
            assert (code, out) == (0, want + "\n"), (sig, term)


# Each subcommand renders only the form it prints; one process may call
# main() many times.

LOOP = r"rec M. (\x.x bot) (\y.M)"


def test_a_rejected_call_does_not_affect_the_next_call():
    code, out, err = run("trace", "--strategy", "xx", "x")
    assert code == 3 and out == ""
    code, out, _ = run("trace", "--ascii", "--strategy", "po", OMEGA)
    assert code == 0 and "stopped: cycle" in out
    code, out, _ = run("tree", "--ascii", r"(\x.x) y")
    assert code == 0 and out == "y\n"


def test_trace_text_output_is_unchanged():
    code, out, _ = run(
        "trace", "--unicode", "--sig", "101", "--rules", "betas", "--fuel", "4", LOOP
    )
    assert code == 0
    assert out == (
        "   0  beta at e  -> (rec M0. \\x0.(\\x1.x1 ⊥) M0) ⊥\n"
        "   1  beta at e  -> (\\x0.x0 ⊥) (\\x0.rec M0. (\\x1.x1 ⊥) (\\x1.M0))\n"
        "stopped: cycle (cycle at 0)\n"
        "m-convergence: no\n"
        "p-limit: bot\n"
    )


def test_trace_json_output_is_unchanged():
    code, out, _ = run(
        "trace", "--format", "json", "--sig", "101", "--rules", "betas", "--fuel", "4", LOOP
    )
    assert code == 0
    assert json.loads(out) == {
        "metadata": {"fuel_spent": 2, "stopped": "cycle", "strategy": "leftmost-outermost"},
        "report": {
            "destructive": True,
            "m": "no",
            "outermost_volatile": [[]],
            "p_limit": "bot",
            "sig": "101",
            "stopped": "cycle",
            "volatile": [[]],
            "witness_depth": 0,
        },
        "rules": "betas",
        "sig": "101",
        "start": "rec M0. (\\x0.x0 bot) (\\x0.M0)",
        "steps": [
            {
                "after": "(rec M0. \\x0.(\\x1.x1 bot) M0) bot",
                "before": "rec M0. (\\x0.x0 bot) (\\x0.M0)",
                "context": "bot",
                "depth": 0,
                "pos": [],
                "rule": "beta",
            },
            {
                "after": "(\\x0.x0 bot) (\\x0.rec M0. (\\x1.x1 bot) (\\x1.M0))",
                "before": "(rec M0. \\x0.(\\x1.x1 bot) M0) bot",
                "context": "bot",
                "depth": 0,
                "pos": [],
                "rule": "beta",
            },
        ],
        "tail": {"cycle_at": 0},
    }


def test_trace_computes_the_p_limit_once(monkeypatch):
    calls = []
    real = convergence.p_limit

    def spy(trace, depth=16):
        calls.append(depth)
        return real(trace, depth)

    monkeypatch.setattr(convergence, "p_limit", spy)
    for fmt in ("text", "json"):
        calls.clear()
        code, _, _ = run("trace", "--format", fmt, "--depth", "9", "--rules", "betas", LOOP)
        assert code == 0 and calls == [9]
    # fuel runs out before a cycle: m-convergence and the p-limit are unknown
    code, out, _ = run("trace", "--ascii", "--fuel", "5", r"(\x.\y.y (x x y)) (\x.\y.y (x x y)) z")
    assert code == 2 and calls == [9, 16]
    assert out.endswith("stopped: fuel\nm-convergence: unknown\np-limit: ?\n")


def test_tree_text_and_json_render_the_same_tree():
    term = r"(\x.\y.y (x x y)) (\x.\y.y (x x y))"
    code, out, _ = run("tree", "--unicode", "--depth", "3", term)
    assert code == 2 and out == "\\x0.x0 (… …)\n"
    code, out, _ = run("tree", "--format", "json", "--unicode", "--depth", "3", term)
    assert code == 2
    assert out == (
        '{"fuel_exhausted": false, "non_canonical": false, "sig": "111", '
        '"tree": "\\\\x0.x0 (... ...)"}\n'
    )


def cyclic_tree(period: int, leaf: str) -> str:
    """``rec M. \\a0.a0 leaf (\\a1.a1 leaf (... M))``: period lambdas per cycle."""
    inner = "M"
    for i in reversed(range(period)):
        inner = rf"(\a{i}.a{i} {leaf} {inner})"
    return f"rec M. {inner}"


def test_order_on_a_long_glb_cycle():
    # coprime periods 23 and 29: the glb is one cycle of 667 lambdas
    code, out, err = run("order", "--ascii", "--sig", "111", cyclic_tree(23, "y"), cyclic_tree(29, "z"))
    assert code == 0 and err == ""
    cycle = "".join(f"\\x{i}.x{i} bot (" for i in range(666)) + "\\x666.x666 bot M0" + ")" * 666
    assert out == f"left <= right: False\nright <= left: False\nglb: rec M0. {cycle}\n"


# A well-formed command line is read off the option table; everything else,
# and every help text and error, comes from the full argparse parser built
# from the same table.  Both must print exactly what the hand-written parser
# printed.

ARGV_CASES = [
    [],
    ["--help"],
    ["-h"],
    *([name, "--help"] for name in cli._COMMANDS),
    ["frobnicate", "x"],
    ["tre", "x"],
    ["tree", "x", "--bogus"],
    ["dist", "x", "y", "z"],
    ["trace", "--rules", "nope", "x"],
    ["join", "--rules", "eta", "x"],
    ["order", "x"],
    ["tree"],
    ["tree", "--sig", "1x1", "x"],
    ["tree", "--depth", "q", "x"],
    ["tree", "--ascii", "--unicode", "x"],
    ["tree", "x", "--he"],
    ["--ascii", "tree", "x"],
    ["--", "tree", "x"],
    ["tree", "--ascii", r"(\x.x) y"],
    ["trace", "--strat", "po", "--ascii", OMEGA],
    ["dev", "--ascii", "--all", r"(\x.x) ((\z.z) a)"],
]


def captured(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def captured_with(build, monkeypatch, capsys, argv):
    """``main(argv)`` with every command line parsed by ``build()``."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_args", lambda argv: build().parse_args(argv))
        return captured(capsys, argv)


@pytest.mark.parametrize("argv", ARGV_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_output_equals_a_parse_by_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    got = captured(capsys, argv)
    assert got == captured_with(cli._build_parser, monkeypatch, capsys, argv)
    assert got == captured_with(oracles.build_parser_by_hand, monkeypatch, capsys, argv)


def test_parser_messages_are_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    cases = [["tree", "x", "--bogus"], ["tre", "x"], ["order", "--help"]]
    got = [captured(capsys, argv) for argv in cases]
    assert got == [
        captured_with(oracles.build_parser_by_hand, monkeypatch, capsys, argv) for argv in cases
    ]
    if sys.version_info[:2] != (3, 11):
        return  # argparse words and wraps these messages differently elsewhere
    assert got[0] == (3, "", "ilc: error: unrecognized arguments: --bogus\n")
    assert got[1] == (
        3,
        "",
        "ilc: error: argument command: invalid choice: 'tre' "
        "(choose from 'tree', 'trace', 'dist', 'order', 'join', 'dev')\n",
    )
    code, out, err = got[2]
    assert code == 0 and err == ""
    assert out.startswith(
        "usage: ilc order [-h] [--sig SIG] [--depth DEPTH] [--fuel FUEL] [--format {text,json}]\n"
        "                 [--ascii | --unicode]\n"
        "                 left right\n"
    )


def test_only_help_and_errors_build_an_argparse_parser(monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    well_formed = [
        ["tree", "--ascii", "x"],
        ["tree", "x", "--depth", "3", "--unicode"],
        ["trace", "--rules", "betas", "--strategy", "po", "--fuel", "5", OMEGA],
        ["dist", "--format", "json", "x", "y"],
        ["order", "x", "--sig", "101", "y"],
        ["join", "--rules", "beta", "x"],
        ["dev", "--all", "--ascii", "x"],
        ["dev", "--redexes", "", "x"],
    ]
    for argv in well_formed:
        built.clear()
        main(argv)
        assert built == [], argv
    # the full parser: the top level and one subparser per subcommand
    full = ["ilc", *(f"ilc {name}" for name in cli._COMMANDS)]
    assert len(full) == 7
    for argv in (
        [],
        ["--help"],
        ["tree", "--help"],
        ["frobnicate", "x"],
        ["tree", "x", "--bogus"],
        ["tree", "--depth=3", "x"],
        ["tree", "--dep", "3", "x"],
        ["tree", "--depth", "-3", "x"],
        ["tree", "--ascii", "--ascii", "x"],
        ["tree", "--ascii", "--unicode", "x"],
        ["trace", "--rules", "nope", "x"],
        ["tree", "--", "x"],
        ["order", "x"],
    ):
        built.clear()
        main(argv)
        assert built == full, argv


# The direct parser against the full one, over command lines drawn from the
# option table: well-formed ones, which it must accept, and ones with forms
# it leaves to argparse, which it may decline.

VALUES = {"--sig": ["111", "101", "21"], "--redexes": ["", "e,2", "1,102"]}
POSITIONALS = ["x", "x y", r"(\x.x) y", "rec M. M y", ""]


def random_argv(rng: random.Random) -> tuple[list[str], bool]:
    """A command line and whether it is well-formed."""
    name = rng.choice(list(cli._COMMANDS))
    command = cli._COMMANDS[name]
    pieces = [[rng.choice(POSITIONALS)] for _ in command.positionals]
    alternatives = {}
    for opt in command.options:
        alternatives.setdefault(opt.dest, []).append(opt)
    for opts in alternatives.values():
        if rng.random() < 0.4:
            opt = rng.choice(opts)
            if isinstance(opt.value, bool):
                pieces.append([opt.flag])
            elif opt.choices:
                pieces.append([opt.flag, rng.choice(opt.choices)])
            elif opt.value is int:
                pieces.append([opt.flag, str(rng.randrange(40))])
            else:
                pieces.append([opt.flag, rng.choice(VALUES[opt.flag])])
    well_formed = rng.random() < 0.4
    for _ in range(0 if well_formed else rng.randint(1, 3)):
        opt = rng.choice(command.options)
        value = None if isinstance(opt.value, bool) else rng.choice(
            list(opt.choices or ()) + ["3", "-3", "3.5", "q", "nope", "-x", ""]
        )
        noise = rng.choice(
            ["repeat", "equals", "abbrev", "help", "dashes", "missing", "extra", "fewer", "bogus"]
        )
        if noise == "repeat":
            pieces.append([opt.flag] + ([] if value is None else [value]))
        elif noise == "equals":
            pieces.append([f"{opt.flag}={value or ''}"])
        elif noise == "abbrev":
            pieces.append([opt.flag[: rng.randint(3, len(opt.flag) - 1)]]
                          + ([] if value is None else [value]))
        elif noise == "help":
            pieces.append([rng.choice(["-h", "--help"])])
        elif noise == "dashes":
            pieces.append(["--"])
        elif noise == "extra":
            pieces.append([rng.choice(POSITIONALS)])
        elif noise == "fewer":
            pieces[:1] = []
        elif noise == "bogus":
            pieces.append([rng.choice(["--bogus", "-x", "-", "-1"])])
        elif value is not None:  # a value that breaks the option: a bad one or none
            pieces.append([opt.flag] + ([value] if rng.random() < 0.7 else []))
    rng.shuffle(pieces)
    if not well_formed and rng.random() < 0.1:
        name = rng.choice(["frobnicate", "tre", "--ascii", "-h", "--", ""])
    return [name] + [token for piece in pieces for token in piece], well_formed


def full_parse(parser, argv):
    """``vars()`` of the full parser's namespace, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_the_direct_parser_agrees_with_the_full_parser():
    rng = random.Random(15)
    parser = cli._build_parser()
    taken = declined = 0
    for _ in range(1500):
        argv, well_formed = random_argv(rng)
        args = cli._parse_direct(argv)
        if args is None:
            assert not well_formed, argv
            declined += 1
        else:
            assert vars(args) == full_parse(parser, argv), argv
            taken += 1
    assert taken > 600 and declined > 600


def test_the_direct_parser_takes_every_benchmark_command_line():
    parser = cli._build_parser()
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
    argvs = [
        item["argv"]
        for path in sorted(corpus.glob("*.json"))
        for item in json.loads(path.read_text())["items"]
    ]
    assert len(argvs) > 1000
    for argv in argvs:
        args = cli._parse_direct(argv)
        assert args is not None and vars(args) == full_parse(parser, argv), argv


def test_main_without_argv_reads_sys_argv(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ilc", "tree", "--ascii", r"(\x.x) y"])
    out = io.StringIO()
    assert main(out=out) == 0 and out.getvalue() == "y\n"
