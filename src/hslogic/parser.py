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

MOD is one of A iA B iB D iD E iE L iL O iO. IDENT matches [a-z_][a-zA-Z0-9_]*
except true and false (is_letter); names beginning with two underscores are
reserved for generated letters but parse normally so rendered output
round-trips. Whitespace is insignificant and "#" starts a comment running to
end of line.

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
_MOD_RE = re.compile(r"[A-Za-z]+")
_PUNCT_KINDS = {"(": "lparen", ")": "rparen", "&": "and", "|": "or",
                "~": "not"}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _PUNCT_KINDS:
            tokens.append(_Token(_PUNCT_KINDS[c], c, line, col))
            i += 1
            continue
        if c == "-":
            if text.startswith("->", i):
                tokens.append(_Token("implies", "->", line, col))
                i += 2
                continue
            raise ParseError("stray '-'", line, col)
        if c in "<[":
            closing = ">" if c == "<" else "]"
            m = _MOD_RE.match(text, i + 1)
            if not m:
                raise ParseError("expected modality name after %r" % c, line, col)
            name = m.group(0)
            j = m.end()
            if j >= n or text[j] != closing:
                raise ParseError("expected %r after modality %r" % (closing, name),
                                 line, col)
            if name not in MODALITIES_BY_NAME:
                raise ParseError("unknown modality %r" % name, line, col)
            kind = "diamond" if c == "<" else "box"
            tokens.append(_Token(kind, MODALITIES_BY_NAME[name], line, col))
            i = j + 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = word if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, col))
            i = m.end()
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    tokens.append(_Token("eof", None, line, n - line_start + 1))
    return tokens


_PREFIX = ("not", "diamond", "box")


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
            raise ParseError("expected %s, found %r" % (kind, tok.value),
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
        raise ParseError("expected a formula, found %r" % (tok.value,),
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
        raise ParseError("trailing input %r" % (tok.value,), tok.line, tok.col)
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
