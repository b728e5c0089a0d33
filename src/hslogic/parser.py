"""Concrete syntax for formulas and fragment strings.

Grammar, loosest binding first:

    formula := impl
    impl    := disj ("->" impl)?          right associative
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := "~" unary
             | "<" MOD ">" unary
             | "[" MOD "]" unary
             | atom
    atom    := "true" | "false" | IDENT | "(" formula ")"

Tokens, read by one regular expression (_TOKEN_RE):

    blank    := " " | TAB | CR | NEWLINE | "#" ... end of line
    punct    := "->" | "(" | ")" | "&" | "|" | "~"
    modality := "<" MOD ">" | "[" MOD "]"      no blank inside
    word     := IDENT | "true" | "false"

MOD is one of A iA B iB D iD E iE L iL O iO. IDENT matches [a-z_][a-zA-Z0-9_]*
except true and false (is_letter); names beginning with two underscores are
reserved for generated letters but parse normally so rendered output
round-trips. Blanks only separate tokens; a newline starts the next line of
the (line, column) that errors report. Any other character, a lone "-" or a
bracket without a known modality and its closing bracket is a ParseError.

A formula may nest at most MAX_NESTING (100) levels deep: no branch of its
tree may carry more than that many operators, and no more than that many
parentheses may be open at once. Deeper input raises ParseError ("nested too
deeply"), so what still recurses over formulas (this parser and pickling)
never runs out of stack.
"""

from __future__ import annotations

import re

from .syntax import (
    Atom, Box, Diamond, Formula, Fragment, Implies, And, Or, Not,
    TRUE, FALSE, MAX_NESTING, MODALITIES_BY_NAME, nesting_depth,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


_TOO_DEEP = "formula nested too deeply (more than %d levels)" % MAX_NESTING

_IDENT_RE = re.compile(r"[a-z_][a-zA-Z0-9_]*")
_KEYWORDS = ("true", "false")
_PUNCT_KINDS = {"(": "lparen", ")": "rparen", "&": "and", "|": "or",
                "~": "not", "->": "implies"}
_PUNCT_SHOWN = {kind: repr(c) for c, kind in _PUNCT_KINDS.items()}
# one token per match, the commonest kinds tried first: blanks and comments
# are unnamed, and a modality ends in close, possibly empty, once a name
# follows its bracket
_TOKEN_RE = re.compile(
    r"(?P<word>" + _IDENT_RE.pattern + r")|[ \t\r]+|(?P<punct>->|[()&|~])"
    r"|(?P<open>[<\[])(?:(?P<mod>[A-Za-z]+)(?P<close>[>\]]?))?"
    r"|#[^\n]*|(?P<newline>\n)|(?P<other>.)", re.DOTALL)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        value = m.group()
        if kind == "word":
            kind = value if value in _KEYWORDS else "ident"
        elif kind == "punct":
            kind = _PUNCT_KINDS[value]
        elif kind == "close":
            c, name, end = m.group("open", "mod", "close")
            closing = ">" if c == "<" else "]"
            if end != closing:
                raise ParseError("expected %r after modality %r"
                                 % (closing, name), line, col)
            if name not in MODALITIES_BY_NAME:
                raise ParseError("unknown modality %r" % name, line, col)
            kind = "diamond" if c == "<" else "box"
            value = MODALITIES_BY_NAME[name]
        elif kind == "open":
            raise ParseError("expected modality name after %r" % value,
                             line, col)
        elif value == "-":
            raise ParseError("stray '-'", line, col)
        else:
            raise ParseError("unexpected character %r" % value, line, col)
        tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("eof", None, line, len(text) - line_start + 1))
    return tokens


_PREFIX = ("not", "diamond", "box")


def _shown(tok: _Token) -> str:
    """How an error message names the token it stopped at."""
    if tok.kind == "eof":
        return "end of input"
    if tok.kind in ("diamond", "box"):
        return repr(("<%s>" if tok.kind == "diamond" else "[%s]")
                    % tok.value.name)
    return repr(tok.value)


def _checked(node: Formula, tok: _Token) -> Formula:
    if nesting_depth(node) > MAX_NESTING:
        raise ParseError(_TOO_DEEP, tok.line, tok.col)
    return node


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.open_parens = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError("expected %s, found %s"
                             % (_PUNCT_SHOWN.get(kind, kind), _shown(tok)),
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        return self.impl()

    def impl(self) -> Formula:
        lhs = self.disj()
        if self.peek().kind != "implies":
            return lhs
        # right associative: collect the chain, then fold from the right
        parts = [lhs]
        arrows = []
        while self.peek().kind == "implies":
            arrows.append(self.take("implies"))
            parts.append(self.disj())
        out = parts.pop()
        while parts:
            out = _checked(Implies(parts.pop(), out), arrows.pop())
        return out

    def disj(self) -> Formula:
        out = self.conj()
        while self.peek().kind == "or":
            tok = self.take("or")
            out = _checked(Or(out, self.conj()), tok)
        return out

    def conj(self) -> Formula:
        out = self.unary()
        while self.peek().kind == "and":
            tok = self.take("and")
            out = _checked(And(out, self.unary()), tok)
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind not in _PREFIX:
            return self.atom()
        # collect the prefix operators, then apply them from the inside out
        ops = []
        while tok.kind in _PREFIX:
            ops.append(tok)
            self.pos += 1
            tok = self.peek()
        out = self.atom()
        for tok in reversed(ops):
            if tok.kind == "not":
                node = Not(out)
            elif tok.kind == "diamond":
                node = Diamond(tok.value, out)
            else:
                node = Box(tok.value, out)
            out = _checked(node, tok)
        return out

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "true":
            self.take("true")
            return TRUE
        if tok.kind == "false":
            self.take("false")
            return FALSE
        if tok.kind == "ident":
            self.take("ident")
            return Atom(tok.value)
        if tok.kind == "lparen":
            self.take("lparen")
            self.open_parens += 1
            if self.open_parens > MAX_NESTING:
                raise ParseError(_TOO_DEEP, tok.line, tok.col)
            inner = self.formula()
            self.take("rparen")
            self.open_parens -= 1
            return inner
        raise ParseError("expected a formula, found %s" % _shown(tok),
                         tok.line, tok.col)


def is_letter(name: str) -> bool:
    """Whether parse_formula reads name as an atom: the one rule for
    letters in formulas, model files and encoded automata."""
    return _IDENT_RE.fullmatch(name) is not None and name not in _KEYWORDS


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    phi = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input %s" % _shown(tok), tok.line, tok.col)
    return phi


def parse_fragment(text: str) -> Fragment:
    """Parse a space-separated list of modality names, e.g. "A iA B"."""
    names = text.replace(",", " ").split()
    if not names:
        raise ParseError("empty fragment", 1, 1)
    mods = set()
    for name in names:
        if name not in MODALITIES_BY_NAME:
            raise ParseError("unknown modality %r" % name, 1, 1)
        mods.add(MODALITIES_BY_NAME[name])
    return Fragment(frozenset(mods))
