import pytest

from ilc.convergence import p_limit
from ilc.meaningless import (
    bohm_tree,
    clear_caches,
    in_bot_instances,
    is_active,
    is_stable,
    m_route_tree,
    reduces_to_lam,
    strict_nf,
)
from ilc.terms import ALL_SIGS, parse_term
from ilc.trees import app, bisimilar, cut, lam, parse_tree, render_tree, tree_of_term
from oracles import s_normalize


def T(src):
    return tree_of_term(parse_term(src))


OMEGA = r"(\x.x x) (\x.x x)"
GROWER = r"(\x.x x y) (\x.x x y)"  # reduces to itself applied to y, forever
SELF_APPLIER = r"y ((\x.\z.x x z) (\x.\z.x x z))"  # its argument is active; fuel 1 cannot show it


def test_reduces_to_lam():
    assert reduces_to_lam(T(r"\x.x")).is_yes
    assert reduces_to_lam(T(r"(\x.x) (\y.y)")).is_yes
    assert reduces_to_lam(T("x y")).is_no
    assert reduces_to_lam(T("bot")).is_no
    assert reduces_to_lam(T(OMEGA)).is_no  # exact loop
    assert reduces_to_lam(T(GROWER)).is_no  # grows forever, caught shifted


def test_reduces_to_lam_witness_replays():
    v = reduces_to_lam(T(r"(\x.x) ((\y.y) (\z.z))"))
    assert v.is_yes
    reduct, positions = v.witness
    assert positions and reduct.kind == "lam"


def test_is_stable():
    sig = (1, 1, 1)
    assert is_stable(sig, T("x y")).is_yes
    assert is_stable(sig, T(r"\x.x")).is_yes
    v = is_stable(sig, T(r"(\x.x) y"))
    assert v.is_no and v.witness[1] == ()
    # instability via a function child that head-reduces to a lambda
    v2 = is_stable(sig, T(r"((\x.x) (\z.z)) y"))
    assert v2.is_no
    prep, pos, reduct = v2.witness
    assert prep == [(1,)] and pos == ()
    # under 001 the function spine is depth 0, so a buried redex counts
    assert is_stable((0, 0, 1), T(r"(\x.x) y z")).is_no
    assert is_stable((1, 1, 1), T(f"y ({OMEGA})")).is_yes


def test_is_active_goldens():
    sig = (1, 1, 1)
    assert is_active(sig, T("x")).is_no
    v = is_active(sig, T(OMEGA))
    assert v.is_yes
    tr = v.witness
    assert render_tree(p_limit(tr).tree, ascii_only=True) == "bot"
    # reaching a stable reduct means not active
    v2 = is_active(sig, T(r"(\x.x) y"))
    assert v2.is_no and render_tree(v2.witness, ascii_only=True) == "y"


def test_is_active_shifted_recurrence():
    # the grower never cycles exactly; the shifted-recurrence check ends it
    v = is_active((1, 0, 1), T(GROWER))
    assert v.is_yes
    assert v.witness.stopped == "shifted"
    # under 111 one step reaches the stable tree (grower) y
    v2 = is_active((1, 1, 1), T(GROWER))
    assert v2.is_no


def test_is_active_cache_answers_as_a_fresh_run():
    t = T(f"({OMEGA}) ({OMEGA})")
    sig = (0, 0, 0)
    clear_caches()
    fresh = is_active(sig, t)
    assert fresh.witness.steps[0].position == (1,)
    # a bisimilar copy is answered from the cache
    cached = is_active(sig, T(f"({OMEGA}) ({OMEGA})"))
    assert cached is fresh
    clear_caches()
    again = is_active(sig, t)
    assert again is not fresh and again.value == fresh.value == "yes"
    assert [s.position for s in again.witness.steps] == [s.position for s in fresh.witness.steps]
    # a verdict found with more fuel is no answer for less: each analysis
    # below is undecided at the first fuel and decided at the second
    fuel_sensitive = [
        (lambda fuel: is_active((1, 1, 1), T(OMEGA), fuel).value, 0, 50),
        (lambda fuel: render_tree(bohm_tree((0, 0, 1), T(SELF_APPLIER), 16, fuel).tree, ascii_only=True), 1, 100),
    ]
    for answer, fuel, more in fuel_sensitive:
        clear_caches()
        fresh = answer(fuel)
        assert answer(more) != fresh
        assert answer(fuel) == fresh


def test_in_bot_instances():
    assert in_bot_instances((1, 1, 1), T("bot")).is_no
    assert in_bot_instances((1, 1, 1), T(OMEGA)).is_yes
    assert in_bot_instances((1, 1, 1), T("x y")).is_no
    # lam x.bot: the hole is filled with Omega before testing activity
    assert in_bot_instances((0, 0, 1), T(r"\x.bot")).is_yes
    assert in_bot_instances((1, 0, 1), T(r"\x.bot")).is_no
    assert in_bot_instances((1, 0, 1), T("bot y")).is_yes


def test_strict_nf_goldens():
    assert render_tree(strict_nf((1, 0, 1), T("bot y")), ascii_only=True) == "bot"
    assert render_tree(strict_nf((1, 1, 1), T("bot y")), ascii_only=True) == "bot y"
    assert render_tree(strict_nf((0, 0, 0), T(r"\x.x bot")), ascii_only=True) == "bot"
    # cut leaves are inert and block the collapse
    t = lam(cut())
    assert render_tree(strict_nf((0, 1, 1), t), ascii_only=True) == "\\x0...."


def test_strict_nf_requires_a_guarded_tree():
    # a cycle of function edges, with and without a Cut leaf on it
    for leaf in (parse_tree("y"), cut()):
        looped = app(None, leaf)
        looped.a = looped
        for sig in ALL_SIGS:
            if sig[1] == 1:
                assert strict_nf(sig, looped) is looped  # nothing collapses
            else:
                with pytest.raises(ValueError, match="strict_nf requires a guarded tree"):
                    strict_nf(sig, looped)


def test_strict_nf_matches_term_oracle():
    from ilc.trees import term_of_tree
    from oracles import enumerate_trees

    for sig in ALL_SIGS:
        for t in enumerate_trees(5):
            got = strict_nf(sig, t)
            want = s_normalize(sig, term_of_tree(t))
            assert bisimilar(got, tree_of_term(want))


def test_bohm_tree_goldens():
    def bt(sig, src, depth=8):
        return render_tree(bohm_tree(sig, T(src), depth).tree, ascii_only=True)

    assert bt((1, 1, 1), OMEGA) == "bot"
    assert bt((0, 0, 1), r"\x.(" + OMEGA + ")") == "bot"
    assert bt((1, 0, 1), r"\x.(" + OMEGA + ")") == "\\x0.bot"
    assert bt((0, 0, 1), r"(\x.x) y") == "y"
    assert bt((0, 0, 1), r"\x.x ((\z.z) y)") == "\\x0.x0 y"


def test_bohm_tree_keeps_free_variables_that_look_internal():
    # an index escaping a subtree is renamed straight to its binder, so a
    # free variable of the input named like a renamed index stays free
    ap = bohm_tree((1, 1, 1), parse_tree(r"\x. y (__t0 x)"))
    assert render_tree(ap.tree, ascii_only=True) == "\\x0.y (__t0 x0)"


def test_bohm_tree_of_grower_is_the_y_spine():
    # (grower) beta-reduces to itself applied to y: the 111 normal form is
    # the infinite left spine of y applications, cut at the depth bound
    ap = bohm_tree((1, 1, 1), T(GROWER), depth=3)
    assert render_tree(ap.tree, ascii_only=True) == "... ... y y"
    spine = parse_tree("rec M. M y")
    deeper = bohm_tree((1, 1, 1), T(GROWER), depth=6)
    # erasing the cut leaves leaves a truncation of the spine
    from ilc.trees import hole, map_graph, truncate

    erased = map_graph(deeper.tree, lambda n: hole() if n.kind == "cut" else None)
    assert bisimilar(
        truncate((1, 1, 1), erased, 3), truncate((1, 1, 1), spine, 3)
    )


def test_bohm_tree_rejects_cut_unknown_input():
    with pytest.raises(ValueError):
        bohm_tree((1, 1, 1), cut())


def test_m_route_agrees_with_bohm_tree():
    for src in [r"(\x.x) y", OMEGA, r"y (" + OMEGA + ")", r"\x.x ((\z.z) y)"]:
        for sig in [(0, 0, 1), (1, 0, 1), (1, 1, 1)]:
            a = bohm_tree(sig, T(src), depth=8)
            b = m_route_tree(sig, T(src), depth=8)
            assert bisimilar(a.tree, b.tree), (src, sig)
