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
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, le, mul, sub
from typing import Hashable, Iterable, Iterator, Mapping, TypeVar

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


def _minimal_monomials(monos) -> list[Exponents]:
    """The monomials that no other one of the set divides, each once."""
    out: list[Exponents] = []
    for m in sorted(set(monos), key=sum):
        if not any(all(map(le, g, m)) for g in out):
            out.append(m)
    return out


def monomial_numerator(monos: Iterable[Exponents], u: tuple[int, ...]) -> dict[int, int]:
    """Numerator N, as {exponent: coefficient}, of the Hilbert series
    N(t) / prod(1 - t^{u_i}) of S / I, I the ideal generated by the
    monomials x^m, m in monos, under the positive weights u (Bayer &
    Stillman 1992, "Computation of Hilbert functions").

    Colon recursion: N(S/(J + x^m)) = N(S/J) - t^{deg m} N(S/(J : x^m)),
    where J : x^m is generated by the x^g / gcd(x^g, x^m).  The minimal
    generators are added one at a time from J = 0, where N = 1.  When no
    two of them share a variable, J : x^m = J at every step, so N is the
    product of the (1 - t^{deg m}) with no recursion.
    """

    def numerator(gens: list[Exponents]) -> dict[int, int]:
        supports = [{i for i, e in enumerate(g) if e} for g in gens]
        coprime = sum(map(len, supports)) == len(set().union(*supports))
        out = {0: 1}
        for j, m in enumerate(gens):
            colon = dict(out) if coprime else numerator(_minimal_monomials(
                tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens[:j]))
            d = weighted_degree(m, u)
            for e, c in colon.items():
                out[e + d] = out.get(e + d, 0) - c
        return {e: c for e, c in out.items() if c}

    return numerator(_minimal_monomials(monos))


def primitive(row: dict) -> dict:
    """An integer row (or polynomial) divided by the positive gcd of its
    values; the row itself when that gcd is 1."""
    content = reduce(math.gcd, row.values())
    return row if content == 1 else {k: c // content for k, c in row.items()}


Column = TypeVar("Column", bound=Hashable)


def reduce_into(pivots: dict[Column, dict[Column, int]], row: dict[Column, int]) -> None:
    """Reduce an integer row by an echelon basis, fraction-free, and keep
    what is left as a new pivot.

    Columns are any totally ordered hashable keys (ints in `infer_weights`,
    its caller).  `pivots` maps the lead of each of its rows, the largest
    key, to the row.
    While the row's lead holds a pivot, with lead coefficients a (row) and
    b (pivot), the row becomes (b/h) * row - (a/h) * pivot, h = gcd(a, b),
    divided by its content.  So len(pivots) is the rank over Q of the rows
    reduced into it, and its leads are the pivot columns of their echelon
    form, taking columns by descending key.  The row is consumed.
    """
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return
        a, b = row[lead], pivot[lead]
        h = math.gcd(a, b)
        a //= h
        b //= h
        if b != 1:
            row = {k: b * c for k, c in row.items()}
        for k, c in pivot.items():
            v = row.get(k, 0) - a * c
            if v:
                row[k] = v
            else:
                del row[k]
        if row:
            # inline, not primitive(row): no call per step; reduce, not
            # gcd(*values): an argument tuple per step would fill the
            # interpreter's cache of freed tuples
            content = reduce(math.gcd, row.values())
            if content != 1:
                row = {k: c // content for k, c in row.items()}


# largest free coordinate tried by infer_weights
WEIGHT_SEARCH_BOUND = 8


def _positive_points(k: int, bound: int) -> Iterator[tuple[int, ...]]:
    """The points of [1, bound]^k by increasing sum, then lexicographically."""

    def with_sum(k: int, s: int) -> Iterator[tuple[int, ...]]:
        if k == 1:
            yield (s,)
            return
        for x in range(max(1, s - bound * (k - 1)), min(bound, s - k + 1) + 1):
            for rest in with_sum(k - 1, s - x):
                yield (x, *rest)

    for s in range(k, bound * k + 1):
        yield from with_sum(k, s)


def infer_weights(p: Polynomial) -> tuple[int, ...] | None:
    """Find a positive integer weight vector making p quasi-homogeneous.

    The weights u solve (m - m_0) . u = 0 for every monomial m of p, m_0 the
    least.  Each free variable of the system is a coordinate of u, so it is
    given a value 1..WEIGHT_SEARCH_BOUND, by increasing sum and then
    lexicographically; the first assignment whose solution is strictly
    positive is returned, divided by its content.  When the solution space
    is a ray this is its minimal positive integer point.  Returns None when
    no positive solution exists (within the search bound), without a scan
    when a row of the reduced echelon form has entries of one sign.
    """
    if p.is_zero():
        raise ZeroPolynomialError("cannot infer weights for the zero polynomial")
    n = p.nvars
    monos = sorted(p.terms)
    # column i is keyed n - 1 - i, so each lead is its row's leftmost nonzero
    # column and the leads are the pivot columns of the reduced echelon form
    pivots: dict[int, dict[int, int]] = {}
    for m in monos[1:]:
        diff = {n - 1 - i: b - a for i, (a, b) in enumerate(zip(monos[0], m)) if a != b}
        reduce_into(pivots, diff)
    free = [i for i in range(n) if n - 1 - i not in pivots]
    # back substitution, fraction-free: in increasing lead order each lead is
    # cleared from the rows above it, whose other pivot keys below it are
    # cleared already, so every row is left with its lead and free keys only
    solve = sorted(pivots)
    for k, low in enumerate(solve):
        pivot = pivots[low]
        for high in solve[k + 1:]:
            row = pivots[high]
            if low in row:
                h = math.gcd(row[low], pivot[low])
                a, b = row[low] // h, pivot[low] // h
                row = {key: b * c - a * pivot.get(key, 0) for key, c in row.items()}
                row.update({key: -a * c for key, c in pivot.items() if key not in row})
                pivots[high] = primitive({key: c for key, c in row.items() if c})
    # a row of one sign (a single entry too) is nonzero at every positive u
    if not free or any(len({c > 0 for c in row.values()}) == 1 for row in pivots.values()):
        return None
    solve = sorted(pivots.items())
    for t in _positive_points(len(free), WEIGHT_SEARCH_BOUND):
        u = [Fraction(0)] * n
        for i, x in zip(free, t):
            u[i] = Fraction(x)
        for lead, row in solve:
            # the other keys of a reduced row are free
            s = sum(c * u[n - 1 - k] for k, c in row.items() if k != lead)
            u[n - 1 - lead] = -s / row[lead]
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
    return primitive(g)


def _primitive_part(p: IntTerms, x: int) -> IntTerms:
    """p divided by its content as a polynomial in x_x over Z[other vars]."""
    content = _gcd_all(list(_coefficients(p, x).values()))
    if _is_constant(content):
        return primitive(p)
    return primitive(_divide_exact(p, content))


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
            candidate = primitive(candidate)
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
                small = primitive(small)
                if _divide_exact(large, small) is not None:
                    return small
        g = _heuristic_gcd(p, q)
        if g is not None:
            return primitive(g)
    cp = _gcd_all(list(_coefficients(p, x).values()))
    cq = _gcd_all(list(_coefficients(q, x).values()))
    content = _gcd(cp, cq)
    a = primitive(p if _is_constant(cp) else _divide_exact(p, cp))
    b = primitive(q if _is_constant(cq) else _divide_exact(q, cq))
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
        return primitive(b)
    g: IntTerms = {}
    _multiply_into(g, content, b, 1)
    return primitive(g)


def _monic(nvars: int, p: IntTerms, exps: list[Exponents]) -> Polynomial:
    """p scaled to leading coefficient 1 under the degree order, with its
    terms in the order of exps."""
    if not p:
        return Polynomial.zero(nvars)
    lead = p[max(exps, key=degree_order(nvars).key_parts)]
    return Polynomial._raw(nvars, {e: Fraction(p[e], lead) for e in exps})


def linear_form_key(p: Polynomial) -> frozenset:
    """The primitive normal form of a polynomial of total degree 1, as its
    (exponents, coefficient) pairs: integer coefficients divided by their
    content, signed so that the term of the largest exponents is positive.
    Such a polynomial is irreducible, so two of them share a factor exactly
    when they are proportional, that is when their keys are equal."""
    row = primitive(_integer_terms(p)[1])
    sign = 1 if row[max(row)] > 0 else -1
    return frozenset((e, sign * c) for e, c in row.items())


def polynomial_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """The gcd over Q, monic under the degree order, its terms descending:
    gcd(0, q) is q made monic (terms in q's order), and a nonzero constant
    argument gives 1.

    A form of total degree 1 is irreducible, so its gcd with the other
    argument is itself when it divides that, and 1 otherwise: one exact
    division decides."""
    if p.is_zero() or q.is_zero():
        g = _integer_terms(q if p.is_zero() else p)[1]
        return _monic(p.nvars, g, list(g))
    if p.is_constant() or q.is_constant():
        return Polynomial.constant(1, p.nvars)
    form, other = (p, q) if p.total_degree() == 1 else (q, p)
    if form.total_degree() == 1:
        a = primitive(_integer_terms(form)[1])
        divides = _divide_exact(_integer_terms(other)[1], a) is not None
        g = a if divides else {(0,) * p.nvars: 1}
    else:
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


def join_terms(terms) -> str:
    """(sign, body) pairs, sign "+" or "-", as the text `a - b + c`: a
    leading sign only when it is "-"; "0" for no terms."""
    text = ""
    for sign, body in terms:
        text += f" {sign} {body}" if text else ("-" if sign == "-" else "") + body
    return text or "0"


def format_poly(p: Polynomial, names: list[str], order: MonomialOrder | None = None) -> str:
    """Canonical text: terms descending under the order, explicit * and ^."""
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
    return join_terms(parts)
