"""Grid query language: parse and canonical print.

Grammar (keywords case-insensitive, whitespace-insensitive)::

    query   := "SELECT" target "WHERE" expr | "EXEC" ident "WHERE" expr
    target  := "patients" | "images"
    expr    := term ("OR" term)*
    term    := factor ("AND" factor)*
    factor  := "NOT" factor | "(" expr ")" | pred
    pred    := field op literal | field "IN" "[" number "," number "]"
    op      := "=" | "!=" | "<" | "<=" | ">" | ">="

The field catalog is closed. A predicate over an absent derived (or
optional patient) field is false — the collapse happens at the predicate,
and NOT negates the result normally afterwards. ``derived.kind`` is the set
of kinds present on an image: ``=`` tests membership, ``!=`` tests that some
present kind differs. ``SiteStore.select`` evaluates expressions with these
semantics; ``harness.oracle.ref_eval`` is the row-at-a-time reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import BadRange, BadValue, QuerySyntaxError, TypeMismatch, UnknownField
from .model import FIELDS, parse_ymd

#: field path -> literal type ("string" | "number" | "date")
FIELD_TYPES = {name: field.type for name, field in FIELDS.items()}

COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")
_EQUALITY_ONLY = ("=", "!=")

_KEYWORDS = {"SELECT", "EXEC", "WHERE", "AND", "OR", "NOT", "IN", "PATIENTS", "IMAGES"}


@dataclass(frozen=True)
class Pred:
    field: str
    op: str  # one of COMPARE_OPS, or "in" with value = (lo, hi)
    value: Union[str, int, float, tuple]


@dataclass(frozen=True)
class Not:
    expr: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


Expr = Union[Pred, Not, And, Or]


@dataclass(frozen=True)
class Query:
    target: str  # "patients" | "images"
    expr: Expr
    exec_algo: Optional[str] = None  # EXEC form; target is then "images"


# --- lexer -------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER STRING OP LPAREN RPAREN LBRACKET RBRACKET COMMA EOF
    text: str
    pos: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_.-"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if _is_ident_start(ch):
            while i < n and _is_ident_part(text[i]):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
        elif ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            i += 1
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            tokens.append(_Token("NUMBER", text[start:i], start))
        elif ch == "'":
            i += 1
            while i < n and text[i] != "'":
                i += 1
            if i >= n:
                raise QuerySyntaxError("unterminated string literal", start, "'")
            tokens.append(_Token("STRING", text[start + 1 : i], start))
            i += 1
        elif ch in "!<>=" :
            if ch == "!" and text[i : i + 2] != "!=":
                raise QuerySyntaxError("lone '!'", start, "!=")
            op = text[i : i + 2] if text[i : i + 2] in ("!=", "<=", ">=") else ch
            tokens.append(_Token("OP", op, start))
            i += len(op)
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, start)); i += 1
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, start)); i += 1
        elif ch == "[":
            tokens.append(_Token("LBRACKET", ch, start)); i += 1
        elif ch == "]":
            tokens.append(_Token("RBRACKET", ch, start)); i += 1
        elif ch == ",":
            tokens.append(_Token("COMMA", ch, start)); i += 1
        else:
            raise QuerySyntaxError(f"unexpected character {ch!r}", start, "")
    tokens.append(_Token("EOF", "", n))
    return tokens


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _current(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _keyword(self, tok: _Token) -> Optional[str]:
        if tok.kind == "IDENT" and tok.text.upper() in _KEYWORDS:
            return tok.text.upper()
        return None

    def _match_keyword(self, word: str) -> bool:
        if self._keyword(self._current()) == word:
            self.pos += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        tok = self._current()
        if self._keyword(tok) != word:
            raise QuerySyntaxError(f"expected {word}, got {tok.text!r}", tok.pos, word)
        self.pos += 1

    def _expect(self, kind: str) -> _Token:
        tok = self._current()
        if tok.kind != kind:
            raise QuerySyntaxError(f"expected {kind}, got {tok.text!r}", tok.pos, kind)
        return self._advance()

    def parse_query(self) -> Query:
        if self._match_keyword("SELECT"):
            tok = self._current()
            word = self._keyword(tok)
            if word not in ("PATIENTS", "IMAGES"):
                raise QuerySyntaxError(
                    f"expected a target, got {tok.text!r}", tok.pos, "patients|images")
            self.pos += 1
            target, algo = word.lower(), None
        elif self._match_keyword("EXEC"):
            tok = self._current()
            if tok.kind != "IDENT" or self._keyword(tok):
                raise QuerySyntaxError(
                    f"expected an algorithm id, got {tok.text!r}", tok.pos, "ident")
            self.pos += 1
            target, algo = "images", tok.text
        else:
            tok = self._current()
            raise QuerySyntaxError(
                f"expected SELECT or EXEC, got {tok.text!r}", tok.pos, "SELECT|EXEC")
        self._expect_keyword("WHERE")
        expr = self.parse_expr()
        tok = self._current()
        if tok.kind != "EOF":
            raise QuerySyntaxError(f"trailing input {tok.text!r}", tok.pos, "end of query")
        return Query(target=target, expr=expr, exec_algo=algo)

    def parse_expr(self) -> Expr:
        node = self._parse_term()
        while self._match_keyword("OR"):
            node = Or(node, self._parse_term())
        return node

    def _parse_term(self) -> Expr:
        node = self._parse_factor()
        while self._match_keyword("AND"):
            node = And(node, self._parse_factor())
        return node

    def _parse_factor(self) -> Expr:
        if self._match_keyword("NOT"):
            return Not(self._parse_factor())
        if self._current().kind == "LPAREN":
            self.pos += 1
            inner = self.parse_expr()
            self._expect("RPAREN")
            return inner
        return self._parse_pred()

    def _parse_pred(self) -> Pred:
        tok = self._current()
        if tok.kind != "IDENT" or self._keyword(tok):
            raise QuerySyntaxError(f"expected a field, got {tok.text!r}", tok.pos, "field")
        field = tok.text
        if field not in FIELD_TYPES:
            raise UnknownField(f"unknown field {field!r}")
        ftype = FIELD_TYPES[field]
        self.pos += 1

        if self._match_keyword("IN"):
            if ftype == "string":
                raise TypeMismatch(f"{field} does not support ranges")
            self._expect("LBRACKET")
            lo = self._range_endpoint(field, ftype)
            self._expect("COMMA")
            hi = self._range_endpoint(field, ftype)
            self._expect("RBRACKET")
            if lo > hi:
                raise BadRange(f"empty range [{lo},{hi}]")
            return Pred(field, "in", (lo, hi))

        op_tok = self._expect("OP")
        if ftype == "string" and op_tok.text not in _EQUALITY_ONLY:
            raise TypeMismatch(f"{field} supports only = and !=")
        return Pred(field, op_tok.text, self._literal(field, ftype))

    def _range_endpoint(self, field: str, ftype: str):
        tok = self._expect("NUMBER")
        return self._typed_number(field, ftype, tok)

    def _literal(self, field: str, ftype: str):
        tok = self._current()
        if tok.kind == "STRING":
            if ftype != "string":
                raise TypeMismatch(f"{field} takes a {ftype} literal, got a string")
            self.pos += 1
            return tok.text
        if tok.kind == "NUMBER":
            if ftype == "string":
                raise TypeMismatch(f"{field} takes a string literal, got a number")
            self.pos += 1
            return self._typed_number(field, ftype, tok)
        raise QuerySyntaxError(f"expected a literal, got {tok.text!r}", tok.pos, "literal")

    def _typed_number(self, field: str, ftype: str, tok: _Token):
        if ftype == "date":
            try:
                parse_ymd(tok.text)
            except BadValue as exc:
                raise TypeMismatch(f"{field} takes a YYYYMMDD date: {exc}") from exc
            return tok.text
        try:
            return float(tok.text) if "." in tok.text else int(tok.text)
        except ValueError:
            raise QuerySyntaxError(f"bad number {tok.text!r}", tok.pos, "number") from None


def parse_query(text: str) -> Query:
    return _Parser(text).parse_query()


# --- canonical printing --------------------------------------------------------

def _literal_text(field: str, value) -> str:
    ftype = FIELD_TYPES[field]
    if ftype == "string":
        return f"'{value}'"
    if ftype == "date":
        return str(value)
    return repr(value) if isinstance(value, float) else str(value)


def _print_expr(node: Expr) -> str:
    if isinstance(node, Pred):
        if node.op == "in":
            lo, hi = node.value
            return f"{node.field} IN [{_literal_text(node.field, lo)},{_literal_text(node.field, hi)}]"
        return f"{node.field} {node.op} {_literal_text(node.field, node.value)}"
    if isinstance(node, Not):
        inner = _print_expr(node.expr)
        if isinstance(node.expr, (And, Or)):
            inner = f"({inner})"
        return f"NOT {inner}"
    if isinstance(node, And):
        left = _print_expr(node.left)
        if isinstance(node.left, Or):
            left = f"({left})"
        right = _print_expr(node.right)
        if isinstance(node.right, (And, Or)):
            right = f"({right})"
        return f"{left} AND {right}"
    if isinstance(node, Or):
        left = _print_expr(node.left)
        right = _print_expr(node.right)
        if isinstance(node.right, Or):
            right = f"({right})"
        return f"{left} OR {right}"
    raise TypeError(f"not an expression node: {node!r}")


def print_query(q: Query) -> str:
    """Canonical text: uppercase keywords, single spaces, minimal parentheses."""
    head = f"EXEC {q.exec_algo}" if q.exec_algo else f"SELECT {q.target}"
    return f"{head} WHERE {_print_expr(q.expr)}"
