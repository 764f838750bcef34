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

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, le, mul, sub
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


# ---------------------------------------------------------------------------
# Exact division and gcds on integer polynomials: dicts from exponent tuple
# to nonzero int.  Rationals meet them only at the edge (`exact_div`,
# `polynomial_gcd`).
# ---------------------------------------------------------------------------

IntTerms = dict[Exponents, int]

# evaluation points `_heuristic_gcd` tries before giving up
_HEURISTIC_POINTS = 6


def _integer_terms(p: Polynomial) -> tuple[int, IntTerms]:
    """(den, den * p), den the lcm of p's denominators."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return den, {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def _primitive(p: IntTerms) -> IntTerms:
    """p divided by the (positive) gcd of its coefficients."""
    content = reduce(math.gcd, p.values())
    return p if content == 1 else {e: c // content for e, c in p.items()}


def _is_constant(p: IntTerms) -> bool:
    return len(p) == 1 and not any(next(iter(p)))


def _negated(e: Exponents) -> Exponents:
    return tuple([-x for x in e])


def _divide_exact(p: IntTerms, d: IntTerms) -> IntTerms | None:
    """p / d when it lies in Z[x], else None.

    One polynomial is its own Groebner basis, so d divides p exactly when
    the division meets no term that d's lead fails to divide.  Terms are
    taken lexicographically largest first, and a step only adds terms below
    the one it removes.  The loop runs on negated exponents, so the heap's
    least key is the largest term and a monomial product is still a tuple
    sum.  A term cancelled and recreated while its entry is queued gets a
    second entry, which finds it gone and is skipped.  With d primitive, d
    divides p over Q exactly when it does in Z[x] (Gauss's lemma).
    """
    top = max(d)
    a = d[top]
    lead = _negated(top)
    tail = [(_negated(e), c) for e, c in d.items() if e != top]
    work = {_negated(e): c for e, c in p.items()}
    heap = list(work)
    heapq.heapify(heap)
    quotient = {}
    while heap:
        t = heapq.heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        g = tuple(map(sub, t, lead))
        if max(g) > 0:
            return None
        c, r = divmod(c, a)
        if r:
            return None
        quotient[g] = c
        for e, v in tail:
            k = tuple(map(add, g, e))
            old = work.get(k)
            if old is None:
                work[k] = -c * v
                heapq.heappush(heap, k)
            elif old == c * v:
                del work[k]
            else:
                work[k] = old - c * v
    return {_negated(g): c for g, c in quotient.items()}


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact quotient p/d; raises ValueError if d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    den_p, num = _integer_terms(p)
    den_d, divisor = _integer_terms(d)
    content = reduce(math.gcd, divisor.values())
    # p / d = (num / primitive divisor) * den_d / (den_p * content)
    quotient = _divide_exact(num, {e: c // content for e, c in divisor.items()})
    if quotient is None:
        raise ValueError("division is not exact")
    scale = Fraction(den_d, den_p * content)
    return Polynomial._raw(p.nvars, {e: c * scale for e, c in quotient.items()})


def _multiply_into(out: IntTerms, p: IntTerms, q: IntTerms, sign: int) -> None:
    """out += sign * p * q, in place."""
    for e, a in p.items():
        a *= sign
        for f, b in q.items():
            k = tuple(map(add, e, f))
            v = out.get(k, 0) + a * b
            if v:
                out[k] = v
            else:
                del out[k]


def _coefficients(p: IntTerms, x: int) -> dict[int, IntTerms]:
    """p as a polynomial in x_x: degree -> coefficient (x_x's exponent 0)."""
    out: dict[int, IntTerms] = {}
    for e, c in p.items():
        out.setdefault(e[x], {})[e[:x] + (0,) + e[x + 1:]] = c
    return out


def _gcd_all(polys: list[IntTerms]) -> IntTerms:
    """Primitive gcd of nonzero polynomials, smallest first, stopping at a
    constant."""
    polys = sorted(polys, key=len)
    g = polys[0]
    for h in polys[1:]:
        if _is_constant(g):
            break
        g = _gcd(g, h)
    return _primitive(g)


def _primitive_part(p: IntTerms, x: int) -> IntTerms:
    """p divided by its content as a polynomial in x_x over Z[other vars]."""
    content = _gcd_all(list(_coefficients(p, x).values()))
    if _is_constant(content):
        return _primitive(p)
    return _primitive(_divide_exact(p, content))


def _pseudo_remainder(a: IntTerms, b: IntTerms, x: int) -> IntTerms:
    """A remainder of lc(b)^k * a on division by b in x_x, where lc(b) is
    b's leading coefficient in x_x: degree below b's in x_x, and equal to
    a modulo b up to a factor in Z[other vars]."""
    by_degree = _coefficients(b, x)
    db = max(by_degree)
    lead_b = by_degree[db]
    tail_b = {e: c for e, c in b.items() if e[x] < db}
    r = a
    while r:
        dr = max(e[x] for e in r)
        if dr < db:
            break
        lead_r: IntTerms = {}
        rest: IntTerms = {}
        for e, c in r.items():
            if e[x] == dr:
                lead_r[e[:x] + (dr - db,) + e[x + 1:]] = c
            else:
                rest[e] = c
        # lc(b) * r - lc(r) * x^(dr - db) * b, whose x^dr terms cancel
        r = {}
        _multiply_into(r, lead_b, rest, 1)
        _multiply_into(r, lead_r, tail_b, -1)
    return r


def _shifted(p: IntTerms, by: list[int], sign: int) -> IntTerms:
    """p times x^by (sign 1) or divided by it (sign -1)."""
    op = add if sign > 0 else sub
    return {tuple(map(op, e, by)): c for e, c in p.items()}


def _gcd(p: IntTerms, q: IntTerms) -> IntTerms:
    """A primitive gcd of nonzero p and q in Z[x]: the monomial factors
    apart, then `_gcd_prs`."""
    low_p = [min(col) for col in zip(*p)]
    low_q = [min(col) for col in zip(*q)]
    if any(low_p):
        p = _shifted(p, low_p, -1)
    if any(low_q):
        q = _shifted(q, low_q, -1)
    g = _gcd_prs(p, q)
    low = list(map(min, low_p, low_q))
    return _shifted(g, low, 1) if any(low) else g


def _evaluate(p: IntTerms, x: int, value: int) -> IntTerms:
    """p with x_x set to value."""
    out: IntTerms = {}
    for e, c in p.items():
        k = e[:x] + (0,) + e[x + 1:]
        out[k] = out.get(k, 0) + c * value ** e[x]
    return {k: c for k, c in out.items() if c}


def _heuristic_gcd(f: IntTerms, g: IntTerms) -> IntTerms | None:
    """gcd(f, g) in Z[x] up to sign, for nonzero f and g, or None when
    the evaluation points tried fail (GCDHEU: Char, Geddes & Gonnet 1989,
    "GCDHEU: Heuristic polynomial GCD algorithm based on integer GCD
    computation").

    The last variable x that occurs is set to an integer xi, the gcd of
    the two images is taken recursively, and its coefficients, written in
    balanced base xi, give the coefficients of x^0, x^1, ... of a
    candidate.  With xi at least twice the smaller largest coefficient of
    f and g plus 2, the candidate's primitive part is the gcd as soon as
    it divides both: a cofactor h of positive degree in x would have
    |h(xi)| beyond the candidate's content, which h(xi) divides.  A
    candidate that fails the division test only costs a larger xi.
    """
    content = math.gcd(reduce(math.gcd, f.values()), reduce(math.gcd, g.values()))
    if content != 1:
        f = {e: c // content for e, c in f.items()}
        g = {e: c // content for e, c in g.items()}
    occurring = [i for i, col in enumerate(zip(*f, *g)) if any(col)]
    if not occurring:
        return {next(iter(f)): content}
    x = occurring[-1]
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEURISTIC_POINTS):
        fx, gx = _evaluate(f, x, xi), _evaluate(g, x, xi)
        h = _heuristic_gcd(fx, gx) if fx and gx else None
        if h is not None:
            candidate: IntTerms = {}
            half = xi // 2
            for e, c in h.items():
                k = 0
                while c:
                    digit = c % xi
                    if digit > half:
                        digit -= xi
                    if digit:
                        candidate[e[:x] + (k,) + e[x + 1:]] = digit
                    c = (c - digit) // xi
                    k += 1
            candidate = _primitive(candidate)
            if _divide_exact(f, candidate) is not None and _divide_exact(g, candidate) is not None:
                return {e: c * content for e, c in candidate.items()}
        # the next point, larger by a factor of about 2.7 * xi^(1/4)
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _gcd_prs(p: IntTerms, q: IntTerms) -> IntTerms:
    """A primitive gcd of nonzero p and q in Z[x].  Past degree 1 in the
    main variable it is an argument that divides the other, or what
    `_heuristic_gcd` finds; otherwise, and whenever the heuristic gives
    up, the recursive primitive PRS (Brown 1971; Knuth, TAOCP vol. 2,
    4.6.1) finds it: contents in the main variable recursively, then
    pseudo-remainders made primitive."""
    dp = [max(col) for col in zip(*p)]
    dq = [max(col) for col in zip(*q)]
    one = {(0,) * len(dp): 1}
    if not any(dp) or not any(dq):
        return one
    # a variable of one argument only: the gcd divides its content there
    for x, (a, b) in enumerate(zip(dp, dq)):
        if a and not b:
            return _gcd_all([q, *_coefficients(p, x).values()])
        if b and not a:
            return _gcd_all([p, *_coefficients(q, x).values()])
    shared = [i for i, a in enumerate(dp) if a]
    x = min(shared, key=lambda i: dp[i] + dq[i])
    # At degree 1 one pseudo-remainder decides, faster than evaluation.
    if min(dp[x], dq[x]) > 1:
        # An argument that divides the other is the gcd, as for a power and
        # its derivative; evaluation would rebuild it from huge integers.
        for large, small, d_large, d_small in ((p, q, dp, dq), (q, p, dq, dp)):
            if all(map(le, d_small, d_large)):
                small = _primitive(small)
                if _divide_exact(large, small) is not None:
                    return small
        g = _heuristic_gcd(p, q)
        if g is not None:
            return _primitive(g)
    cp = _gcd_all(list(_coefficients(p, x).values()))
    cq = _gcd_all(list(_coefficients(q, x).values()))
    content = _gcd(cp, cq)
    a = _primitive(p if _is_constant(cp) else _divide_exact(p, cp))
    b = _primitive(q if _is_constant(cq) else _divide_exact(q, cq))
    if dp[x] < dq[x]:
        a, b = b, a
    while True:
        r = _pseudo_remainder(a, b, x)
        if not r:
            break
        if not any(e[x] for e in r):
            b = one
            break
        a, b = b, _primitive_part(r, x)
    if _is_constant(content):
        return _primitive(b)
    g: IntTerms = {}
    _multiply_into(g, content, b, 1)
    return _primitive(g)


def _monic(nvars: int, p: IntTerms, exps: list[Exponents]) -> Polynomial:
    """p scaled to leading coefficient 1 under the degree order, with its
    terms in the order of exps."""
    if not p:
        return Polynomial.zero(nvars)
    lead = p[max(exps, key=degree_order(nvars).key_parts)]
    return Polynomial._raw(nvars, {e: Fraction(p[e], lead) for e in exps})


def polynomial_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """The gcd over Q, monic under the degree order, its terms descending:
    gcd(0, q) is q made monic (terms in q's order), and a nonzero constant
    argument gives 1."""
    if p.is_zero() or q.is_zero():
        g = _integer_terms(q if p.is_zero() else p)[1]
        return _monic(p.nvars, g, list(g))
    if p.is_constant() or q.is_constant():
        return Polynomial.constant(1, p.nvars)
    g = _gcd(_integer_terms(p)[1], _integer_terms(q)[1])
    return _monic(p.nvars, g, sorted(g, key=degree_order(p.nvars).key_parts, reverse=True))


def squarefree_test(p: Polynomial) -> tuple[bool, Polynomial]:
    """True iff gcd(p, dp/dx_1, ..., dp/dx_n) is constant.

    Returns the gcd as a witness.
    """
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
