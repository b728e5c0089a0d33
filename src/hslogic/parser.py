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

The whole text is scanned before any of it is parsed, so a scanner error
anywhere wins over a parse error. The parser is one loop over the tokens
with an operand stack and an operator stack, an open parenthesis being a
mark on the latter; nothing recurses, so nesting depth is no limit, and
deep input is a resource limit like any large input.
"""

from __future__ import annotations

import re

from .syntax import (
    Atom, Box, Diamond, Formula, Fragment, Implies, And, Or, Not,
    TRUE, FALSE, MODALITIES_BY_NAME,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.line = line
        self.col = col


_IDENT_RE = re.compile(r"[a-z_][a-zA-Z0-9_]*")
_KEYWORDS = {"true": TRUE, "false": FALSE}
# one token per match, the commonest kinds tried first: blanks and comments
# are unnamed, and a modality ends in close, possibly empty, once a name
# follows its bracket
_TOKEN_RE = re.compile(
    r"(?P<word>" + _IDENT_RE.pattern + r")|[ \t\r\n]+|(?P<punct>->|[()&|~])"
    r"|(?P<open>[<\[])(?:(?P<mod>[A-Za-z]+)(?P<close>[>\]]?))?"
    r"|#[^\n]*|(?P<other>.)", re.DOTALL)


def _error(message: str, text: str, at: int) -> ParseError:
    """A ParseError at offset at of text, by its line and column."""
    line_start = text.rfind("\n", 0, at) + 1
    return ParseError(message, text.count("\n", 0, at) + 1,
                      at - line_start + 1)


def _found(template: str, text: str, at: int) -> ParseError:
    """A ParseError at the token at offset at, which template's %s names."""
    shown = ("end of input" if at == len(text)
             else repr(_TOKEN_RE.match(text, at).group()))
    return _error(template % shown, text, at)


def _tokenize(text: str):
    """The tokens of text as (kind, value, offset) tuples, the last of kind
    "eof": an atom or a constant is of kind "formula" with the node as its
    value, a modality of kind "<" or "[" with the Modality, and punctuation
    of its own text."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        value, at = m.group(), m.start()
        if kind == "word":
            kind = "formula"
            value = _KEYWORDS[value] if value in _KEYWORDS else Atom(value)
        elif kind == "punct":
            kind = value
        elif kind == "close":
            kind, name, end = m.group("open", "mod", "close")
            closing = ">" if kind == "<" else "]"
            if end != closing:
                raise _error("expected %r after modality %r"
                             % (closing, name), text, at)
            if name not in MODALITIES_BY_NAME:
                raise _error("unknown modality %r" % name, text, at)
            value = MODALITIES_BY_NAME[name]
        elif kind == "open":
            raise _error("expected modality name after %r" % value, text, at)
        elif value == "-":
            raise _error("stray '-'", text, at)
        else:
            raise _error("unexpected character %r" % value, text, at)
        tokens.append((kind, value, at))
    tokens.append(("eof", None, len(text)))
    return tokens


# Pending operators are (precedence, node class, modality): a prefix is 4,
# an infix operator 1-3 and an open parenthesis 0, above a bottom of -1.
# Before an infix operator is pushed, the pending ones of at least its
# least precedence are applied: & and | are left associative, so that
# least is their own precedence, and -> is right associative.
_PREFIX = {"~": Not, "<": Diamond, "[": Box}
_INFIX = {"&": (3, And, 3), "|": (2, Or, 2), "->": (1, Implies, 2)}
_MARK = (0, None, None)
_BOTTOM = (-1, None, None)


def _reduce(out: list, ops: list, least: int) -> None:
    """Apply the pending infix operators of precedence least or more."""
    while ops[-1][0] >= least:
        cls = ops.pop()[1]
        rhs = out.pop()
        out[-1] = cls(out[-1], rhs)


def is_letter(name: str) -> bool:
    """Whether parse_formula reads name as an atom: the one rule for
    letters in formulas, model files and encoded automata."""
    return _IDENT_RE.fullmatch(name) is not None and name not in _KEYWORDS


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    out = []
    ops = [_BOTTOM]
    i = 0
    while True:
        # where an operand starts: prefixes and parentheses pile up until
        # an atom or a constant
        kind, value, at = tokens[i]
        i += 1
        if kind in _PREFIX:
            ops.append((4, _PREFIX[kind], value))
            continue
        if kind == "(":
            ops.append(_MARK)
            continue
        if kind != "formula":
            raise _found("expected a formula, found %s", text, at)
        out.append(value)
        # the operand is complete: apply the prefixes before it, and close
        # each parenthesis that follows it
        while True:
            while ops[-1][0] == 4:
                _, cls, mod = ops.pop()
                out[-1] = cls(out[-1]) if cls is Not else cls(mod, out[-1])
            kind, value, at = tokens[i]
            i += 1
            if kind != ")":
                break
            _reduce(out, ops, 1)
            if ops[-1] is not _MARK:
                raise _found("trailing input %s", text, at)
            ops.pop()
        if kind in _INFIX:
            prec, cls, least = _INFIX[kind]
            _reduce(out, ops, least)
            ops.append((prec, cls, None))
            continue
        _reduce(out, ops, 1)
        if ops[-1] is _MARK:
            raise _found("expected ')', found %s", text, at)
        if kind != "eof":
            raise _found("trailing input %s", text, at)
        return out[0]


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
