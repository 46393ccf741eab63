"""Parser for a discrete subset of the BIF network format.

Supported: ``network`` blocks, ``variable`` blocks declaring
``type discrete [ k ] { states }``, and ``probability`` blocks whose
rows are either ``table p0, ...;`` (parentless variables) or
``( state, ... ) p0, ...;`` keyed by parent states in header order.
Everything else (continuous variables in particular) is rejected with a
line/column diagnostic.

Tokens, with spaces, tabs, line breaks, ``//`` line comments and
``/* */`` block comments skipped between them:

- punct: one of ``{ } [ ] ( ) | , ; =``;
- string: ``"`` up to the next ``"``, line breaks included, no escapes;
- number: a digit, or ``+``, ``-`` or ``.`` before a digit, then digits,
  ``.``, ``e`` and ``E``, with ``+`` or ``-`` only right after ``e``/``E``
  (``1e-5`` is one number, ``0.5-0.2`` is two);
- word: a letter or ``_``, then letters, digits, ``_``, ``.`` and ``-``.

A digit is a Unicode decimal digit (``\\d``), and a letter is any other
word character (``\\w``), so ``²`` and ``½`` start words. An unterminated
string or block comment, or any other character, is an error.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bnet import CptNetwork, CycleError, Dag


class BifParseError(ValueError):
    """Syntax or consistency error in a BIF file, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(message, line, col)  # the args a pickle replays
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"line {self.line}, column {self.col}: {self.args[0]}"


def _error(text: str, pos: int, message: str) -> BifParseError:
    return BifParseError(message, text.count("\n", 0, pos) + 1,
                         pos - text.rfind("\n", 0, pos))


class _Token(NamedTuple):
    kind: str  # "word", "number", "string", "eof", or the punct character
    text: str
    pos: int  # offset into the text


_TOKEN = re.compile(r"""
      [ \t\r\n]+ | //[^\n]* | /\*.*?\*/
    | (?P<punct>[{}\[\]()|,;=])
    | "(?P<string>[^"]*)"
    | (?P<number>[+\-.]?\d(?:[\d.eE]|(?<=[eE])[+\-])*)
    | (?P<word>[^\W\d][\w.\-]*)
    | (?P<open>/\*|")
    | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "open":
            what = "comment" if m[0] == "/*" else "string"
            raise _error(text, m.start(), f"unterminated {what}")
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {m[0]!r}")
        if kind == "punct":  # kind is the character: a quoted "}" is no brace
            tokens.append(_Token(m[0], m[0], m.start()))
        elif kind is not None:
            tokens.append(_Token(kind, m[kind], m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


_NAME_KINDS = ("word", "string")
_STATE_KINDS = ("word", "number", "string")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        raise _error(self.text, (tok or self.peek()).pos, message)

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text!r}", tok)
        return tok

    def items(self, kinds, noun, close, where, trailing=False):
        """Read ``item, item, ... close``, yielding each item before the
        separator after it is read, so a caller's check on an item fails
        before a later syntax error does."""
        while True:
            tok = self.next()
            if tok.kind not in kinds:
                self.fail(f"expected a {noun}", tok)
            yield tok
            sep = self.next()
            if sep.kind == close:
                return
            if sep.kind != ",":
                self.fail(f"expected ',' or {close!r} {where}", sep)
            if trailing and self.peek().kind == close:
                self.next()
                return

    def skip_statement(self):
        # Consume a property-style statement up to and including ';'.
        depth = 0
        while True:
            tok = self.next()
            if tok.kind == "eof":
                self.fail("unterminated statement", tok)
            if tok.kind in ("(", "[", "{"):
                depth += 1
            elif tok.kind in (")", "]", "}"):
                depth -= 1
            elif tok.kind == ";" and depth == 0:
                return

    # -- grammar ---------------------------------------------------------

    def parse(self) -> CptNetwork:
        states: dict[str, list[str]] = {}
        order: dict[str, _Token] = {}  # name -> its 'variable' keyword
        blocks: dict[str, tuple[_Token, list[str], dict]] = {}
        while self.peek().kind != "eof":
            tok = self.next()
            if tok.kind != "word":
                self.fail("expected a block keyword", tok)
            if tok.text == "network":
                self.parse_network()
            elif tok.text == "variable":
                name, vals = self.parse_variable()
                if name in states:
                    self.fail(f"variable {name!r} declared twice", tok)
                states[name] = vals
                order[name] = tok
            elif tok.text == "probability":
                head, child, parents, rows = self.parse_probability(states)
                if child in blocks:
                    self.fail(f"second probability block for {child!r}", head)
                blocks[child] = (head, parents, rows)
            else:
                self.fail(f"unknown block {tok.text!r}", tok)
        return self.assemble(order, states, blocks)

    def parse_network(self):
        self.next()  # network name (word or string)
        self.expect("{")
        while self.peek().kind != "}":
            if self.peek().kind == "eof":
                self.fail("unterminated network block")
            self.skip_statement()
        self.expect("}")

    def parse_variable(self) -> tuple[str, list[str]]:
        name_tok = self.next()
        if name_tok.kind not in _NAME_KINDS:
            self.fail("expected a variable name", name_tok)
        self.expect("{")
        values: list[str] | None = None
        while self.peek().kind != "}":
            tok = self.next()
            if tok.kind == "eof":
                self.fail("unterminated variable block", tok)
            if tok.kind == "word" and tok.text == "type":
                kind = self.next()
                if kind.text != "discrete":
                    self.fail(f"unsupported variable type {kind.text!r} "
                              "(only discrete is accepted)", kind)
                self.expect("[")
                count_tok = self.expect("number")
                self.expect("]")
                self.expect("{")
                vals = [v.text for v in self.items(
                    _STATE_KINDS, "state name", "}", "in state list",
                    trailing=True)]
                self.expect(";")
                try:
                    declared = int(count_tok.text)
                except ValueError:
                    self.fail("state count must be an integer", count_tok)
                if declared != len(vals):
                    self.fail(f"declared {declared} states but listed {len(vals)}",
                              count_tok)
                if declared < 2:
                    self.fail("a variable needs at least 2 states", count_tok)
                if len(set(vals)) != len(vals):
                    self.fail("duplicate state name", count_tok)
                values = vals
            elif tok.kind == "word" and tok.text == "property":
                self.skip_statement()
            else:
                self.fail(f"unexpected token {tok.text!r} in variable block", tok)
        self.expect("}")
        if values is None:
            self.fail(f"variable {name_tok.text!r} has no type declaration",
                      name_tok)
        return name_tok.text, values

    def parse_probability(self, states) -> tuple[_Token, str, list[str], dict]:
        head = self.expect("(")
        child_tok = self.next()
        if child_tok.kind not in _NAME_KINDS:
            self.fail("expected a variable name", child_tok)
        if child_tok.text not in states:
            self.fail(f"unknown variable {child_tok.text!r}", child_tok)
        parents: list[str] = []
        tok = self.next()
        if tok.kind == "|":
            for p in self.items(_NAME_KINDS, "parent name", ")",
                                "in parent list"):
                if p.text not in states:
                    self.fail(f"unknown variable {p.text!r}", p)
                if p.text == child_tok.text or p.text in parents:
                    self.fail(f"repeated variable {p.text!r} in header", p)
                parents.append(p.text)
        elif tok.kind != ")":
            self.fail("expected '|' or ')'", tok)
        self.expect("{")
        rows: dict[tuple[str, ...] | None, tuple[list[float], _Token]] = {}
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("unterminated probability block")
            if tok.kind == "word" and tok.text == "table":
                self.next()
                if None in rows:
                    self.fail("second table row", tok)
                if parents:
                    self.fail("'table' rows are only valid for parentless "
                              "variables; use '( states ) ...' rows", tok)
                rows[None] = (self.parse_numbers(), tok)
            elif tok.kind == "word" and tok.text == "property":
                self.next()
                self.skip_statement()
            elif tok.kind == "(":
                self.next()
                key = tuple(v.text for v in self.items(
                    _STATE_KINDS, "state name", ")", "in state tuple"))
                if not parents:
                    self.fail("state-tuple row in a parentless block", tok)
                if len(key) != len(parents):
                    self.fail(f"row names {len(key)} states for {len(parents)} "
                              "parents", tok)
                for name, val in zip(parents, key):
                    if val not in states[name]:
                        self.fail(f"{val!r} is not a state of {name!r}", tok)
                if key in rows:
                    self.fail(f"duplicate row for {key}", tok)
                rows[key] = (self.parse_numbers(), tok)
            else:
                self.fail(f"unexpected token {tok.text!r} in probability block",
                          tok)
        self.expect("}")
        return head, child_tok.text, parents, rows

    def parse_numbers(self) -> list[float]:
        vals = []
        for tok in self.items(("number",), "probability", ";",
                              "after a probability"):
            try:
                vals.append(float(tok.text))
            except ValueError:
                self.fail(f"bad number {tok.text!r}", tok)
        return vals

    # -- assembly --------------------------------------------------------

    def assemble(self, order, states, blocks) -> CptNetwork:
        if not order:
            raise BifParseError("no variables declared", 1, 1)
        for nm, tok in order.items():
            if nm not in blocks:
                self.fail(f"missing probability block for variable {nm!r}", tok)
        index = {nm: i for i, nm in enumerate(order)}
        try:
            dag = Dag(tuple(order), tuple(
                frozenset(index[p] for p in blocks[nm][1]) for nm in order))
        except CycleError as exc:
            raise _error(self.text, blocks[exc.names[0]][0].pos, str(exc)) from exc

        cards = tuple(len(states[nm]) for nm in order)
        cpts = []
        for nm, r in zip(order, cards):
            head, parents, rows = blocks[nm]
            if not parents and None not in rows:
                self.fail(f"missing 'table' row for {nm!r}", head)
            # rows ravel over the parents in ascending index (CptNetwork)
            canon = sorted(parents, key=index.get)
            shape = tuple(len(states[p]) for p in canon)
            table = np.full((int(np.prod(shape)), r), -1.0)
            for key, payload in rows.items():
                named = dict(zip(parents, key or ()))
                cfg = tuple(states[p].index(named[p]) for p in canon)
                table[np.ravel_multi_index(cfg, shape)] = \
                    self.check_row(payload, nm, r)
            if (table < 0).any():
                missing = np.unravel_index(
                    int(np.argmax((table < 0).any(axis=1))), shape)
                desc = ", ".join(f"{p}={states[p][k]}"
                                 for p, k in zip(canon, missing))
                self.fail(f"missing CPT row for {nm!r} at ({desc})", head)
            cpts.append(table)
        return CptNetwork(dag, cards, tuple(cpts))

    def check_row(self, payload, nm, r) -> np.ndarray:
        vals, tok = payload
        if len(vals) != r:
            self.fail(f"{nm!r} row lists {len(vals)} probabilities, "
                      f"expected {r}", tok)
        arr = np.asarray(vals, dtype=np.float64)
        if (arr < 0).any():
            self.fail(f"negative probability in {nm!r}", tok)
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-6:
            self.fail(f"{nm!r} row sums to {total:.8f}, expected 1 within "
                      "1e-6", tok)
        return arr / total  # renormalize residual rounding


def parse_bif(text: str) -> CptNetwork:
    """Parse BIF text into a :class:`CptNetwork`.

    Raises :class:`BifParseError` (with line and column) on syntax
    errors, unknown variables, continuous types, missing or duplicate
    CPT rows, rows that do not sum to 1 within 1e-6, and cycles.
    """
    return _Parser(text).parse()


def load_bif(path) -> CptNetwork:
    """Read a UTF-8 BIF file and parse it; a line ends at \\n, \\r\\n or \\r."""
    # Path.read_text's newline translation, done on the bytes: \r and \n
    # never occur inside a UTF-8 sequence, so the decoded text is the same.
    raw = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = raw[:exc.start].decode("utf-8")
        raise _error(text, len(text), f"invalid UTF-8 byte "
                     f"{raw[exc.start]:#04x}") from None
    return parse_bif(text)
