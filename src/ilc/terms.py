"""Finite lambda terms with an explicit bottom element.

Terms are the surface syntax of the library: named variables, abstraction,
application, and the least element ``⊥``.  This module provides the syntax,
parsing and printing, and the strictness signatures ``(a0, a1, a2)`` that
mark the lambda-body, function, and argument edges as strict (0) or
non-strict (1), with the depth and cut of a position under one.  Finite terms
are the compact trees: the conflict relation (whose emptiness is
alpha-equivalence), the ultrametric, the approximation order and the height
of a term are those of its de Bruijn tree, in ``trees`` and ``order``.
"""

from __future__ import annotations

from dataclasses import dataclass

Sig = tuple[int, int, int]
Position = tuple[int, ...]

ALL_SIGS: tuple[Sig, ...] = tuple(
    (a0, a1, a2) for a0 in (0, 1) for a1 in (0, 1) for a2 in (0, 1)
)

#: the three signatures with unique infinitary normal forms
CANONICAL_SIGS: tuple[Sig, ...] = ((0, 0, 1), (1, 0, 1), (1, 1, 1))


def parse_sig(text: str) -> Sig:
    if len(text) != 3 or any(c not in "01" for c in text):
        raise ValueError(f"strictness signature must be three digits in {{0,1}}: {text!r}")
    return (int(text[0]), int(text[1]), int(text[2]))


def sig_str(sig: Sig) -> str:
    return "".join(str(b) for b in sig)


def adepth(sig: Sig, p: Position) -> int:
    """Depth of a position: the number of non-strict edges along it."""
    return sum(sig[i] for i in p)


def acut(sig: Sig, p: Position) -> Position:
    """The longest prefix of ``p`` ending in a non-strict edge."""
    for k in range(len(p), 0, -1):
        if sig[p[k - 1]] == 1:
            return p[:k]
    return ()


# ---------------------------------------------------------------------------
# Term syntax


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Bot(Term):
    pass


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Abs(Term):
    binder: str
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term


BOT = Bot()


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split into (kind, value, offset) triples; kinds: ident, bot, rec, punct."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "\\.()":
            toks.append(("punct", c, i))
            i += 1
            continue
        if c == "λ":  # λ behaves like backslash
            toks.append(("punct", "\\", i))
            i += 1
            continue
        if c == "⊥":  # ⊥
            toks.append(("bot", c, i))
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "bot":
                toks.append(("bot", word, i))
            elif word == "rec":
                toks.append(("rec", word, i))
            else:
                toks.append(("ident", word, i))
            i = j
            continue
        if c == "_":
            # internal identifiers (escaped binders, _e0, ...) are accepted on input too
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


def _expect(tok: tuple[str, str, int], kind: str, value: str | None = None) -> str:
    if tok[0] != kind or (value is not None and tok[1] != value):
        raise ParseError(f"expected {value or kind}, found {tok[1] or 'end of input'}", tok[2])
    return tok[1]


def _parse(toks, var, bot, lam, app, tie=None):
    """Parse TERM ::= '\\' IDENT '.' TERM | 'rec' IDENT '.' TERM | ATOM ATOM*,
    ATOM ::= IDENT | 'bot' | '(' TERM ')', building with the constructors.

    ``var(name, index)`` builds an identifier, ``index`` being its de Bruijn
    index, or None when it is free; ``lam(name, body)`` closes a lambda.
    ``rec`` is accepted only when ``tie`` is given: its placeholder is a
    ``bot()``, an identifier naming it denotes the placeholder itself (before
    any lambda binder of that name), and ``tie(placeholder, body)`` closes
    it.  Application is left-associative and binders scope as far right as
    they can.  Open lambdas, recs and parentheses are frames on an explicit
    stack, so nesting has no depth limit, and each name is looked up in
    constant time.
    """
    scope: dict[str, list[int]] = {}  # lambda binder -> the depths binding it, if any
    recs: dict[str, list] = {}  # rec name -> its open placeholders, if any
    # ("(", the application before it) | ("\\", name) | ("rec", name, placeholder, offset)
    frames: list[tuple] = []
    depth = 0  # open lambdas
    acc = None  # the application built so far in the innermost open term
    k = 0
    while True:
        kind, value, off = toks[k]
        k += 1
        if acc is None and (kind == "punct" and value == "\\" or kind == "rec" and tie):
            name = _expect(toks[k], "ident")
            _expect(toks[k + 1], "punct", ".")
            k += 2
            if kind == "rec":
                node = bot()
                recs.setdefault(name, []).append(node)
                frames.append(("rec", name, node, off))
            else:
                scope.setdefault(name, []).append(depth)
                depth += 1
                frames.append(("\\", name))
            continue
        if kind == "ident":
            if recs.get(value):
                node = recs[value][-1]
            elif scope.get(value):
                node = var(value, depth - 1 - scope[value][-1])
            else:
                node = var(value, None)
        elif kind == "bot":
            node = bot()
        elif kind == "punct" and value == "(":
            frames.append(("(", acc))
            acc = None
            continue
        else:  # the innermost open term ends here
            if acc is None:
                raise ParseError(f"expected a term, found {value or 'end of input'}", off)
            node = acc
            while frames and frames[-1][0] != "(":
                frame = frames.pop()
                if frame[0] == "\\":
                    scope[frame[1]].pop()
                    depth -= 1
                    node = lam(frame[1], node)
                    continue
                _, name, placeholder, at = frame
                recs[name].pop()
                if node is placeholder:
                    raise ParseError(f"unproductive rec binding {name!r}", at)
                tie(placeholder, node)
                node = placeholder
            if not frames:
                if kind != "eof":
                    raise ParseError(f"trailing input {value!r}", off)
                return node
            _expect((kind, value, off), "punct", ")")
            acc = frames.pop()[1]
        acc = node if acc is None else app(acc, node)


def parse_term(text: str) -> Term:
    """Parse a term; application is left-associative, lambda scopes right."""
    toks = tokenize(text)
    kind, value, off = toks[0]
    if kind == "rec":
        raise ParseError("'rec' literals denote trees, not terms", off)
    return _parse(toks, lambda name, index: Var(name), lambda: BOT, Abs, App)


def render_term(t: Term, ascii_only: bool = False) -> str:
    """Print with minimal parentheses; inverse of parse_term up to alpha.

    An explicit work stack prints into a list of parts, so there is no
    depth limit.
    """
    bot = "bot" if ascii_only else "⊥"
    parts: list[str] = []
    # work items: a string is printed as is, a pair (term, context) prints
    # the term; contexts: 0 top (no parentheses), 1 function side of an
    # application, 2 argument side
    work: list = [(t, 0)]
    while work:
        item = work.pop()
        if type(item) is str:
            parts.append(item)
            continue
        t, ctx = item
        match t:
            case Bot():
                parts.append(bot)
            case Var(name):
                parts.append(name)
            case Abs(binder, body):
                if ctx:
                    parts.append("(")
                    work.append(")")
                parts.append(f"\\{binder}.")
                work.append((body, 0))
            case App(fun, arg):
                if ctx == 2:
                    parts.append("(")
                    work.append(")")
                work += ((arg, 2), " ", (fun, 1))
            case _:
                raise TypeError(f"not a term: {t!r}")
    return "".join(parts)
