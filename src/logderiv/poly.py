"""Exact sparse multivariate polynomial arithmetic over Q.

A polynomial in n variables is stored as a mapping from exponent tuples to
nonzero rational coefficients (fractions.Fraction).  The zero polynomial has
an empty term map.  Every operation is pure and returns a new object, so
values can be shared freely between threads.

Weighted gradings are given by a strictly positive integer weight vector u,
assigning degree u_i to the variable x_i; the weighted degree of a monomial
x^a is then sum(a_i * u_i).  Term comparison is weighted-degree first with a
reverse-lexicographic tiebreak.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Exponents = tuple[int, ...]


class ParseError(ValueError):
    """Rejected input text, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroPolynomialError(ValueError):
    """The operation is undefined for the zero polynomial."""


class NonPositiveWeightError(ValueError):
    """Weight vectors must be strictly positive: with zero or mixed-sign
    weights the graded slices are infinite dimensional and the associated
    dimension series is not defined, so the computation is refused."""


class NotQuasiHomogeneous(ValueError):
    """Witnesses two monomials with different weighted degrees."""

    def __init__(self, mono_a: Exponents, mono_b: Exponents, u: tuple[int, ...]):
        self.witness = (mono_a, mono_b)
        self.u = u
        da = weighted_degree(mono_a, u)
        db = weighted_degree(mono_b, u)
        super().__init__(
            f"monomials {mono_a} and {mono_b} have weighted degrees {da} != {db} under u={u}"
        )


class FiltrationError(ValueError):
    """A term's degree exceeds the declared bound it is homogenized to."""


def weighted_degree(exps: Exponents, u: Iterable[int]) -> int:
    return sum(map(mul, exps, u))


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("terms", "nvars")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Polynomial":
        """Trusted constructor: terms already clean (no zeros, tuple keys)."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, c, nvars: int) -> "Polynomial":
        c = Fraction(c)
        return cls._raw(nvars, {} if c == 0 else {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._raw(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Exponents, coeff, nvars: int) -> "Polynomial":
        c = Fraction(coeff)
        return cls._raw(nvars, {} if c == 0 else {tuple(exps): c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_coefficient(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        """Max total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial._raw(self.nvars, out)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial._raw(self.nvars, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = mono_mul(ea, eb)
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._raw(self.nvars, out)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.constant(1, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.nvars)
        return NotImplemented

    def set_last_var_one(self) -> "Polynomial":
        """Substitute 1 for the last variable (dehomogenization)."""
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            key = e[:-1]
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return Polynomial._raw(self.nvars - 1, out)

    def homogenize(self, target: int, weights: tuple[int, ...]) -> "Polynomial":
        """Append a last variable of weight 1 to the power that brings every
        term's weighted degree up to `target`; set_last_var_one inverts it."""
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            gap = target - weighted_degree(e, weights)
            if gap < 0:
                raise FiltrationError(
                    f"term of degree {target - gap} exceeds the declared bound {target}"
                )
            out[e + (gap,)] = c
        return Polynomial._raw(self.nvars + 1, out)

    def sort_key(self) -> tuple:
        """Deterministic total key, independent of any monomial order."""
        return tuple(sorted((e, c) for e, c in self.terms.items()))

    def __repr__(self):
        return f"Polynomial({self.nvars}, {dict(self.terms)!r})"


@dataclass(frozen=True)
class MonomialOrder:
    """Weighted-degree reverse-lexicographic order; weights must be
    positive.  Elimination orders live on module slots (the block split of
    `groebner.FreeModule`)."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise NonPositiveWeightError(f"weights must be positive, got {self.weights}")

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def key_parts(self, exps: Exponents) -> tuple[int, tuple]:
        """(weighted degree, tail): larger is higher in the order."""
        tail = tuple(-e for e in reversed(exps))
        return (weighted_degree(exps, self.weights), tail)


def degree_order(nvars: int) -> MonomialOrder:
    return MonomialOrder((1,) * nvars)


def u_degree(p: Polynomial, u: tuple[int, ...]) -> int:
    """Common weighted degree of all monomials of p.

    Raises ZeroPolynomialError on the zero polynomial and NotQuasiHomogeneous
    (with a witness pair) when two monomials disagree.
    """
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no weighted degree")
    it = iter(p.terms)
    first = next(it)
    d = weighted_degree(first, u)
    for exps in it:
        if weighted_degree(exps, u) != d:
            return_witness = exps
            raise NotQuasiHomogeneous(first, return_witness, tuple(u))
    return d


def partial_derivative(p: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to the i-th variable."""
    if not 0 <= i < p.nvars:
        raise IndexError(f"variable index {i} out of range for {p.nvars} variables")
    out: dict[Exponents, Fraction] = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        d = list(e)
        d[i] -= 1
        out[tuple(d)] = c * e[i]
    return Polynomial._raw(p.nvars, out)


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form over Q (in place on copies)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pr = rows[pivot_row]
        inv = Fraction(1) / pr[col]
        rows[pivot_row] = [x * inv for x in pr]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows


# coordinate range searched by infer_weights when the solution space of
# the weight equations has dimension above 1
WEIGHT_SEARCH_BOUND = 8


def infer_weights(p: Polynomial) -> tuple[int, ...] | None:
    """Find a positive integer weight vector making p quasi-homogeneous.

    Solves the linear system equating the weighted degrees of all monomials
    and returns the first strictly positive integer point, normalized by its
    content.  When the solution space is a ray this is its minimal positive
    integer point; higher-dimensional solution spaces are searched over small
    integer combinations in a deterministic order.  Returns None when no
    positive solution exists (within the search bound).
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot infer weights for the zero polynomial")
    n = p.nvars
    monos = sorted(p.terms)
    rows = [
        [Fraction(b - a) for a, b in zip(monos[0], m)] for m in monos[1:]
    ]
    rref = [r for r in _rref(rows) if any(x != 0 for x in r)]
    pivots = []
    for r in rref:
        for j, x in enumerate(r):
            if x != 0:
                pivots.append(j)
                break
    free = [j for j in range(n) if j not in pivots]
    if not free:
        return None

    def point(assign: dict[int, Fraction]) -> list[Fraction]:
        u = [Fraction(0)] * n
        for j, t in assign.items():
            u[j] = t
        for r, j in zip(rref, pivots):
            u[j] = -sum(r[c] * u[c] for c in free)
        return u

    k = len(free)
    candidates: Iterator[tuple[int, ...]]
    if k == 1:
        candidates = iter([(1,), (-1,)])
    else:
        raw = itertools.product(
            range(-WEIGHT_SEARCH_BOUND, WEIGHT_SEARCH_BOUND + 1), repeat=k
        )
        candidates = iter(
            sorted(
                (t for t in raw if any(t)),
                key=lambda t: (sum(abs(x) for x in t), t),
            )
        )
    for t in candidates:
        u = point({j: Fraction(v) for j, v in zip(free, t)})
        if all(x > 0 for x in u):
            denom_lcm = math.lcm(*(x.denominator for x in u))
            ints = [int(x * denom_lcm) for x in u]
            g = math.gcd(*ints)
            return tuple(x // g for x in ints)
    return None


def squarefree_test(p: Polynomial) -> tuple[bool, Polynomial]:
    """True iff gcd(p, dp/dx_1, ..., dp/dx_n) is constant.

    Returns the gcd as a witness.  The gcd runs through the Groebner engine
    (`groebner.polynomial_gcd` reads it off the syzygies of one argument
    modulo the other), imported lazily to keep this module the bottom of
    the dependency stack.
    """
    from .groebner import polynomial_gcd

    if p.is_constant():
        raise ValueError("squarefreeness is undefined for constant input")
    g = p
    for i in range(p.nvars):
        g = polynomial_gcd(g, partial_derivative(p, i))
        if g.is_constant():
            break
    return g.is_constant(), g


# ---------------------------------------------------------------------------
# Text grammar: integers (or integer/integer rationals), declared variable
# names, + - * ^ and parentheses, with juxtaposition meaning multiplication.
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
        elif c == "/":
            tokens.append(("slash", c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: list[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            if self.next()[1] == "-":
                sign = -sign
        result = self.term() * sign
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.next()[1]
            t = self.term()
            result = result + t if op == "+" else result - t
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                result = result * self.factor()
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                result = result * self.factor()
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            kind, value, pos = self.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            return base ** int(value)
        return base

    def atom(self) -> Polynomial:
        kind, value, pos = self.next()
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "slash":
                self.next()
                k2, v2, p2 = self.next()
                if k2 != "int" or int(v2) == 0:
                    raise ParseError("expected nonzero integer denominator", p2)
                return Polynomial.constant(Fraction(num, int(v2)), self.nvars)
            return Polynomial.constant(num, self.nvars)
        if kind == "name":
            if value not in self.names:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Polynomial.variable(self.names[value], self.nvars)
        if kind == "op" and value == "(":
            inner = self.expr()
            kind, value, pos = self.next()
            if not (kind == "op" and value == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_poly(text: str, names: list[str]) -> Polynomial:
    """Parse an expression over the declared variable names."""
    parser = _Parser(text, list(names))
    result = parser.expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", pos)
    return result


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(p: Polynomial, names: list[str], order: MonomialOrder | None = None) -> str:
    """Canonical text: terms descending under the order, explicit * and ^."""
    if p.is_zero():
        return "0"
    if order is None:
        order = degree_order(p.nvars)
    parts = []
    for exps in sorted(p.terms, key=order.key_parts, reverse=True):
        c = p.terms[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        ac = abs(c)
        if not mono:
            body = _format_coeff(ac)
        elif ac == 1:
            body = mono
        else:
            body = f"{_format_coeff(ac)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
