"""Buchberger Groebner bases for submodules of shifted free modules.

Elements of a free module of rank r are tuples of r polynomials.  A term of
an element is a pair (slot, exponents); terms are compared by shifted
weighted degree first (so a graded order on the module refines the grading),
then by the ring order's reverse-lexicographic tie-break, with lower slot
index winning ties.  An optional block split turns the order into an
elimination order for the leading block of slots.  A block split takes
homogeneous rows only (`_extent` refuses any other): then, as in a graded
order, no division or S-vector creates a term above the degree of the
terms it comes from.

An element has two forms.  A `Vector`, a tuple of Fraction polynomials, is
the one parsing builds and printing reads.  A `Row` is the one the routines
compute with: integer coefficients on (slot, exponents) terms over one
positive denominator, in lowest terms.  Vectors in, Rows out: every routine
takes either form, or a mix (`as_row`, the one place `Row.of` is called),
and every routine that returns module elements returns Rows, an ideal's
generators as Rows of rank 1.  `Row.vector` makes a Vector only at the
edges: `GroebnerBasis.elements`, the remainder of `normal_form`, and the
quotients and remainder of `divide`.

Inside the engine (`GroebnerBasis`, division, S-vectors, interreduction,
S-pair lifts) a Row is packed: a dict from packed term to int.  A packed
term is one int whose integer order is the term order (`_Packing`), so
multiplying by a monomial is an int addition and the division heap holds
bare ints.  Basis rows are primitive (content 1) with a positive lead
coefficient, and division is fraction-free, so no Fraction arithmetic runs
inside Buchberger's loop.  A packing belongs to one basis, or to the
generators whose S-pairs `_schreyer_lifts` lifts: a Row is packed as it
enters and unpacked (`_Packing.element`) as it leaves, a basis made monic
there.

`syzygies(module, gens, relations)` is the one kernel routine, and the only
one that eliminates: it returns the c with sum(c_i * gens[i]) in the
submodule generated by relations (Singular's `modulo`).  Homogeneous
generators with no relations need no elimination when they form a Groebner
basis, as D(f)'s reduced basis and most resolution steps do: elements whose
leads lie in distinct slots have no syzygy (`_leads_in_distinct_slots`), so
a free basis, as most D(f) are, needs no Buchberger run, and otherwise the
lifts of their S-pairs, divided with quotients (`_schreyer_lifts`), are the
syzygies (Schreyer's theorem).  Only relations, inhomogeneous generators
and generators that are not a Groebner basis take the block split.
`intersect` and `module_quotient` are one call to it each, and
`combination` is the one linear combination sum(c_i * v_i), on Rows.  For
inhomogeneous generators `syzygies` also hands over, on request, what its
block-split basis already holds: the reduced basis of the homogenized
image, the ambient block of the rows whose lead lies in it.
`resolution.free_resolution` keeps it for its image test.
Polynomial gcds and exact division by one polynomial need no Groebner
basis; they live in `poly`.

`vector_grading` is the one reader of an element's degree (its largest
shifted weighted degree), and it grades a Row once per grading: the answer
is kept on the Row (`Row.memo`), so every layer, the engine included, asks
`vector_grading` for the grading of an element it was handed, and no
gradings are passed along.  Two routines record a grading without
computing it, for rows homogeneous of a degree they know: `syzygies`, for
each row it builds for the elimination, and `homogenize_vector`, for each
nonzero element it pads.
`homogenize_vector` is the one way to pad an element up to a degree, with a
new last variable h of weight 1 (`homogenized`); `syzygies` and `homog` both
homogenize through it.

`GroebnerBasis` is the one Buchberger engine: a reduced basis with its leads
prepared for division, grown in place by `add`.  Its rows are also kept
grouped by the slot of their lead, and a division tries a term only against
the rows of the term's slot.  `add` checks each row only against the
leads of the rows after it: no lead divides a term of an earlier row.
Buchberger's loop and `_schreyer_lifts` form S-pairs by one rule,
criteria M and F (`_new_pairs`).
`sorted_by_lead` gives rows a reduced basis's order without computing one,
by each row's lead (`_lead`) under the explicit key `_lead_key`.  `Row.unit`
builds the unit element e_slot.
`grow` keeps a basis that is not interreduced and, for graded input,
truncated at a degree: enough to decide membership.

Everything is exact over Q and deterministic: bases are fully interreduced,
made monic and sorted, so the reduced basis of a module under a fixed order
is unique and normal forms are canonical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add, mul

from .poly import (
    Exponents,
    FiltrationError,
    MonomialOrder,
    Polynomial,
)
# The gcd needs no Groebner basis and lives in poly.  perfbench's tracer
# finds it under this module's name, and wraps every name bound to it.
from .poly import polynomial_gcd  # noqa: F401

Vector = tuple[Polynomial, ...]
FlatTerm = tuple[int, Exponents]


@dataclass(frozen=True)
class FreeModule:
    """Ambient free module: rank = len(shifts), slot i carries shift[i].

    Slots at index >= block_split (when set) are ordered strictly below the
    leading block, regardless of degree.  The engine takes only homogeneous
    rows in a module with a block split; `syzygies` builds the only one.
    """

    nvars: int
    shifts: tuple[int, ...]
    order: MonomialOrder
    block_split: int | None = None

    @property
    def rank(self) -> int:
        return len(self.shifts)


def ring_module(nvars: int, order: MonomialOrder) -> FreeModule:
    return FreeModule(nvars, (0,), order)


@dataclass(slots=True)
class Row:
    """The element terms / den of a free module of rank `rank` over `nvars`
    variables.  terms maps (slot, exponents) to a nonzero int, and den > 0
    is the least common denominator of the element's coefficients: the
    content of terms is prime to den, so equal elements have equal Rows.

    Once a Row is built, no code writes to any field of it but `memo`:
    `vector_grading`'s answer for the last grading (shifts and weights) it
    was asked about, as ((shifts, weights), grading).  That answer is a
    function of the terms and the grading, so a memo write is idempotent,
    and equality and repr ignore the memo."""

    terms: dict[FlatTerm, int]
    den: int
    rank: int
    nvars: int
    memo: tuple | None = field(default=None, compare=False, repr=False)

    @classmethod
    def lowest(cls, terms: dict[FlatTerm, int], den: int, rank: int, nvars: int) -> "Row":
        """The Row of terms / den, den a nonzero int."""
        if den < 0:
            terms, den = {k: -c for k, c in terms.items()}, -den
        if den != 1:
            g = reduce(math.gcd, terms.values(), den)
            if g != 1:
                terms, den = {k: c // g for k, c in terms.items()}, den // g
        return cls(terms, den, rank, nvars)

    @classmethod
    def unit(cls, slot: int, rank: int, nvars: int) -> "Row":
        """The unit element e_slot."""
        return cls({(slot, (0,) * nvars): 1}, 1, rank, nvars)

    @classmethod
    def of(cls, vec: Vector) -> "Row":
        """The Row of a Vector."""
        den = reduce(math.lcm, (c.denominator for p in vec for c in p.terms.values()), 1)
        return cls(
            {
                (slot, exps): c.numerator * (den // c.denominator)
                for slot, p in enumerate(vec)
                for exps, c in p.terms.items()
            },
            den,
            len(vec),
            vec[0].nvars if vec else 0,
        )

    def vector(self) -> Vector:
        """The Vector of the Row: terms[t] / den at each term t."""
        comps: list[dict] = [{} for _ in range(self.rank)]
        den = self.den
        for (slot, exps), c in self.terms.items():
            comps[slot][exps] = Fraction(c) if den == 1 else Fraction(c, den)
        nvars = self.nvars
        return tuple(Polynomial._raw(nvars, d) for d in comps)


def as_row(elem: Row | Vector) -> Row:
    """The element as a Row (`Row.of` for a Vector)."""
    return elem if isinstance(elem, Row) else Row.of(elem)


def vec_is_zero(vec: Vector) -> bool:
    return all(p.is_zero() for p in vec)


def combination(coeffs: Row, vectors) -> Row:
    """sum(coeffs[k] * vectors[k]) over the slots k of coeffs, where
    coeffs[k] is the polynomial in slot k; the zero Row of rank 0 for no
    vectors.  The one linear combination: every term product is a tuple
    sum of exponents and an int product over one common denominator."""
    if not vectors:
        return Row({}, 1, 0, coeffs.nvars)
    common = reduce(math.lcm, {vectors[k].den for k, _ in coeffs.terms}, 1)
    out: dict[FlatTerm, int] = {}
    get = out.get
    for (k, e), c in coeffs.terms.items():
        v = vectors[k]
        c *= common // v.den
        for (slot, f), a in v.terms.items():
            key = (slot, tuple(map(add, e, f)))
            out[key] = get(key, 0) + c * a
    first = vectors[0]
    out = {k: c for k, c in out.items() if c}
    return Row.lowest(out, coeffs.den * common, first.rank, first.nvars)


def vector_grading(module: FreeModule, elem: Row | Vector) -> tuple[int, bool]:
    """Largest shifted weighted degree of the element's terms (0 for zero),
    and whether every term has it.  The answer is kept on the Row
    (`Row.memo`) and read back while the module's shifts and weights are
    equal to those it was computed for."""
    row = as_row(elem)
    key = (module.shifts, module.order.weights)
    if row.memo is not None and row.memo[0] == key:
        return row.memo[1]
    shifts, weights = key
    degrees = {shifts[slot] + sum(map(mul, exps, weights)) for slot, exps in row.terms}
    grading = max(degrees, default=0), len(degrees) < 2
    row.memo = (key, grading)
    return grading


def vector_degree(module: FreeModule, elem: Row | Vector) -> int:
    """The common degree of a nonzero homogeneous element (ValueError for
    any other)."""
    row = as_row(elem)
    degree, homogeneous = vector_grading(module, row)
    if not homogeneous or not row.terms:
        raise ValueError("only a nonzero homogeneous element has a degree")
    return degree


def _lead_key(term: FlatTerm) -> tuple[Exponents, int]:
    """The term order's tie-break among terms of one shifted degree, least
    first: smaller e_{n-1}, ..., e_0 ranks higher, then the lower slot
    (`_Packing`).  Adding exponents preserves it, so lead(alpha * g) =
    alpha * lead(g)."""
    slot, exps = term
    return exps[::-1], slot


def _lead(module: FreeModule, row: Row) -> FlatTerm:
    """The lead of a nonzero row in module's order, a block split not
    read: the least `_lead_key` among its terms of its degree
    (`vector_grading`)."""
    degree, homogeneous = vector_grading(module, row)
    terms = row.terms
    if not homogeneous:
        shifts, weights = module.shifts, module.order.weights
        terms = [(s, e) for s, e in terms if shifts[s] + sum(map(mul, e, weights)) == degree]
    return min(terms, key=_lead_key)


def _leads_in_distinct_slots(leads: list[FlatTerm]) -> bool:
    """Whether no two of the leads lie in one slot.  Then elements with
    these leads have no syzygy: in a sum(c_i * g_i) with some c_i nonzero
    the terms lead(c_i) * lead(g_i) lie in distinct slots, so the largest
    of them cancels against no other term (the lead argument behind
    Schreyer's theorem, Eisenbud, Commutative Algebra, 15.10)."""
    slots = [slot for slot, _ in leads]
    return len(set(slots)) == len(slots)


def homogenized(module: FreeModule) -> FreeModule:
    """The module with the same shifts over one more variable h, last, of
    weight 1: where `homogenize_vector` puts the elements of module."""
    weights = module.order.weights + (1,)
    return FreeModule(module.nvars + 1, module.shifts, MonomialOrder(weights))


def homogenize_vector(
    module: FreeModule, elem: Row | Vector, degree: int | None = None
) -> Row:
    """Pad every term of the element with a power of h up to shifted
    weighted degree `degree` (default: the largest, `vector_grading`), which
    gives a homogeneous element of `homogenized(module)`, its grading
    recorded in its memo; raises FiltrationError when a term is above
    `degree`.  Zero pads to zero."""
    row = as_row(elem)
    if degree is None:
        degree = vector_grading(module, row)[0]
    weights, shifts = module.order.weights, module.shifts
    terms: dict[FlatTerm, int] = {}
    for (slot, exps), c in row.terms.items():
        bound = degree - shifts[slot]
        gap = bound - sum(map(mul, exps, weights))
        if gap < 0:
            raise FiltrationError(
                f"term of degree {bound - gap} exceeds the declared bound {bound}"
            )
        terms[(slot, exps + (gap,))] = c
    memo = ((shifts, weights + (1,)), (degree, True)) if terms else None
    return Row(terms, row.den, row.rank, row.nvars + 1, memo)


def dehomogenize_vector(elem: Row | Vector) -> Row:
    """Set h, the last variable, to 1; inverts `homogenize_vector`."""
    row = as_row(elem)
    terms: dict[FlatTerm, int] = {}
    for (slot, exps), c in row.terms.items():
        key = (slot, exps[:-1])
        s = terms.get(key, 0) + c
        if s:
            terms[key] = s
        else:
            del terms[key]
    return Row.lowest(terms, row.den, row.rank, row.nvars - 1)


class _Packing:
    """Packed terms of one module, for terms of shifted degree up to
    `capacity`: the fields of a packing made for `degree` hold exponents up
    to twice degree - min(shifts), so the lcm of two leads of that degree
    fits too, and every field has at least 4 value bits.  That floor spares
    a basis of low-degree input the repacking (`GroebnerBasis._widen`) that
    its S-vectors or later generators of higher degree would otherwise
    force.

    The term (slot, e) of shifted weighted degree d is the int

        slot + sum(e_i << pos_i) + ((top - d) << deg_pos) + (lower << block_pos)

    with e_0 in the lowest exponent field and lower = 1 in the block below a
    block split.  Ascending in it is descending term order: leading block,
    higher shifted degree, then smaller e_{n-1}, ..., e_0 (the reverse-
    lexicographic tie-break), then lower slot.  The int is affine in e, so
    multiplying a term by x^g adds one int (the code of g: a term minus the
    code of 1 in its slot), and t - a is that code of t / a.

    Each exponent field has `width` value bits and a guard bit above them
    that no term sets.  In t - a a field with e_t < e_a borrows, and the
    lowest such field sets its guard, so a divides t in one slot exactly
    when (t - a) & divmask == 0 (divmask: every guard and the slot field).
    A term of shifted degree at most capacity has every e_i at most
    capacity - min(shifts), as weights are positive, so it fits.
    """

    __slots__ = ("module", "capacity", "width", "largest", "positions", "deg_pos",
                 "top", "deg_mask", "slot_mask", "one", "place", "guard", "divmask")

    def __init__(self, module: FreeModule, degree: int):
        shifts, weights = module.shifts, module.order.weights
        low = min(shifts, default=0)
        self.module = module
        self.width = max(2 * (degree - low), 15).bit_length()
        self.largest = largest = (1 << self.width) - 1
        self.capacity = low + largest
        slot_bits = (module.rank - 1).bit_length()
        field = self.width + 1
        self.positions = tuple(slot_bits + i * field for i in range(module.nvars))
        self.deg_pos = deg_pos = slot_bits + module.nvars * field
        # the largest shifted degree of a term whose exponents all fit
        self.top = top = largest * sum(weights) + max(shifts, default=0)
        self.deg_mask = (1 << (top - low).bit_length()) - 1
        block_pos = deg_pos + self.deg_mask.bit_length()
        split = module.rank if module.block_split is None else module.block_split
        self.slot_mask = (1 << slot_bits) - 1
        self.one = tuple(
            slot + ((top - shift) << deg_pos) + ((slot >= split) << block_pos)
            for slot, shift in enumerate(shifts)
        )
        self.place = tuple((1 << p) - (w << deg_pos) for p, w in zip(self.positions, weights))
        self.guard = sum(1 << (p + self.width) for p in self.positions)
        self.divmask = self.guard | self.slot_mask

    def term(self, slot: int, exps: Exponents) -> int:
        return self.one[slot] + sum(map(mul, exps, self.place))

    def decode(self, code: int) -> FlatTerm:
        largest = self.largest
        return code & self.slot_mask, tuple([(code >> p) & largest for p in self.positions])

    def degree(self, code: int) -> int:
        """Shifted weighted degree of a term."""
        return self.top - ((code >> self.deg_pos) & self.deg_mask)

    def row(self, row: Row) -> dict[int, int]:
        """The integer terms of a Row, packed (its denominator dropped).
        Its terms must fit."""
        one, place = self.one, self.place
        return {one[slot] + sum(map(mul, exps, place)): c
                for (slot, exps), c in row.terms.items()}

    def element(self, packed: dict[int, int], den: int, low: int = 0,
                high: int | None = None) -> Row:
        """The Row packed / den on the slots from `low` up to `high` (the
        rank when None), numbered from 0; terms in other slots are
        dropped."""
        mask, largest, positions = self.slot_mask, self.largest, self.positions
        high = self.module.rank if high is None else high
        terms = {
            (slot - low, tuple([(code >> p) & largest for p in positions])): c
            for code, c in packed.items() if low <= (slot := code & mask) < high
        }
        return Row.lowest(terms, den, high - low, self.module.nvars)


class _Prepared:
    """Basis row with its lead split off for the division loop: the lead
    term and coefficient, the other terms, and the lead's slot and exponents
    for S-pair lcms."""

    __slots__ = ("row", "lead", "coeff", "tail", "slot", "exps")

    def __init__(self, row: dict[int, int], packing: _Packing):
        self.row = row
        self.lead = lead = min(row)
        self.coeff = row[lead]
        self.tail = [(k, c) for k, c in row.items() if k != lead]
        self.slot, self.exps = packing.decode(lead)


def _by_slot(basis: list[_Prepared], rank: int) -> list[list[_Prepared]]:
    """The rows grouped by the slot of their lead, each group in basis
    order: only a lead in a term's slot can divide it."""
    slots: list[list[_Prepared]] = [[] for _ in range(rank)]
    for b in basis:
        slots[b.slot].append(b)
    return slots


def _divide(
    row: dict[int, int],
    divisors: list[list[_Prepared]],
    packing: _Packing,
    want_quotients: bool = False,
):
    """Fraction-free full division by the rows of `divisors` (`_by_slot`):
    returns (scale, quotients, remainder) with scale * row ==
    sum(q_b * b) + remainder, where quotients maps each row b to q_b, a
    dict from the code of a monomial to its coefficient (an empty dict
    without `want_quotients`).  scale is a product of lead coefficients,
    positive when they are.

    The remainder contains no term divisible by any basis lead; with a
    reduced basis it is the canonical normal form up to scale.  A term c*t
    reduced by a basis row b with lead coefficient a turns the work into
    (a/h) * work - (c/h) * x^g * b, h = gcd(a, c), and scales the
    remainder and quotients so far by a/h.  Terms are taken largest first
    from a heap of their codes.  A reduction step only adds terms below the
    one it removes, so each term is handled once and the remainder is built
    in descending order.  A term that is cancelled and recreated while its
    entry is still queued gets a second entry; the first one popped handles
    it and the term leaves `work`, so the other is skipped.

    A term t is tried only against the rows of its slot, t & slot_mask, in
    basis order, so it meets the same first divisor as in a scan of the
    whole basis.  Within one slot a lead divides t exactly when no guard
    bit of t - lead is set.  The caller sees to it that every term created
    fits the packing (`_extent`).
    """
    guard, slot_mask = packing.guard, packing.slot_mask
    work = dict(row)
    heap = list(work)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    scale = 1
    remainder: dict[int, int] = {}
    quotients: dict[_Prepared, dict[int, int]] = (
        {b: {} for slot in divisors for b in slot} if want_quotients else {}
    )
    while heap:
        t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        for b in divisors[t & slot_mask]:
            gamma = t - b.lead
            if gamma & guard:
                continue
            a = b.coeff
            if a != 1:
                h = math.gcd(a, c)
                if h != a:
                    m = a // h
                    scale *= m
                    work = {k: v * m for k, v in work.items()}
                    remainder = {k: v * m for k, v in remainder.items()}
                    for q in quotients.values():
                        for k in q:
                            q[k] *= m
                c //= h
            for k, v in b.tail:
                k += gamma
                p = c * v
                old = work.get(k)
                if old is None:
                    work[k] = -p
                    heappush(heap, k)
                elif old == p:
                    del work[k]
                else:
                    work[k] = old - p
            if want_quotients:
                quotients[b][gamma] = c
            break
        else:
            remainder[t] = c
    return scale, quotients, remainder


def _s_vector(a: _Prepared, b: _Prepared, lcm: int) -> tuple[int, int, int, int, dict[int, int]]:
    """(ma, ga, mb, gb, s): the S-vector s = ma * x^ga * a - mb * x^gb * b
    of rows whose leads lie in one slot, lcm the code of their leads' lcm,
    ma = lc_b / h and mb = lc_a / h with h = gcd(lc_a, lc_b), ga and gb
    the codes of lcm / lead(a) and lcm / lead(b)."""
    h = math.gcd(a.coeff, b.coeff)
    ma, mb = b.coeff // h, a.coeff // h
    ga, gb = lcm - a.lead, lcm - b.lead
    # multiplying by ga is injective, so these keys are distinct
    out = {k + ga: ma * c for k, c in a.tail}
    for k, c in b.tail:
        k += gb
        v = out.get(k, 0) - mb * c
        if v:
            out[k] = v
        else:
            del out[k]
    return ma, ga, mb, gb, out


def _new_pairs(earlier: list[_Prepared], b: _Prepared, packing: _Packing) -> dict[int, int]:
    """The pairs (i, b) over the rows i of `earlier` whose lead lies in b's
    slot that criteria M and F keep, as lcm code -> i: the one pair rule of
    Buchberger's loop and of `_schreyer_lifts`.  M drops a pair when another
    one's lcm properly divides its lcm, F keeps the first pair of each lcm.
    Either drops (i, b), of lcm m, for a pair (k, b) whose lcm m' divides
    m, and the lead syzygy of (i, b) is (m / m') times that of (k, b) plus
    (m / lcm(i, k)) times that of the earlier pair (i, k); in Schreyer's
    order its lead, (m / lead(b)) * e_b, is a multiple of that of (k, b)."""
    divmask = packing.divmask
    lcms = {
        i: packing.term(b.slot, tuple(map(max, a.exps, b.exps)))
        for i, a in enumerate(earlier)
        if a.slot == b.slot
    }
    distinct = set(lcms.values())
    kept: dict[int, int] = {}
    for i, lcm in lcms.items():
        if not any(m != lcm and not (lcm - m) & divmask for m in distinct):
            kept.setdefault(lcm, i)
    return kept


def _extent(module: FreeModule, rows: list[Row]) -> int:
    """The largest shifted degree of a term of the rows (`vector_grading`):
    no division by them creates a term above it.  That holds in a graded
    order, and under a block split for homogeneous rows only, so there an
    inhomogeneous row is refused (ValueError)."""
    gradings = [vector_grading(module, r) for r in rows]
    if module.block_split is not None and not all(h for _, h in gradings):
        raise ValueError("a block split takes homogeneous rows only")
    return max(d for d, _ in gradings)


def divide(
    module: FreeModule, vec: Row | Vector, basis_vectors
) -> tuple[list[Polynomial], Vector]:
    """Divide vec by the basis, returning (quotients, remainder) with
    vec == sum(q_i * b_i) + remainder."""
    row = as_row(vec)
    basis = [as_row(b) for b in basis_vectors]
    live = [i for i, b in enumerate(basis) if b.terms]
    packing = _Packing(module, _extent(module, [row] + [basis[i] for i in live]))
    prepared = [_Prepared(packing.row(basis[i]), packing) for i in live]
    scale, quotient_rows, rem = _divide(
        packing.row(row), _by_slot(prepared, module.rank), packing, want_quotients=True
    )
    den = scale * row.den
    quotients = [Polynomial.zero(module.nvars) for _ in basis]
    for pos, b in zip(live, prepared):
        q, cleared = quotient_rows[b], basis[pos].den
        quotients[pos] = Polynomial._raw(module.nvars, {
            packing.decode(g + packing.one[0])[1]: Fraction(c * cleared, den)
            for g, c in q.items()
        })
    return quotients, packing.element(rem, den).vector()


def normal_form(module: FreeModule, vec: Row | Vector, gb: GroebnerBasis) -> Vector:
    """The remainder of vec divided by the reduced basis gb: zero exactly
    when vec lies in the submodule, and the same for any two vectors with
    the same class modulo it."""
    row = as_row(vec)
    gb._fit(_extent(module, [row]))
    scale, rem = gb._remainder(gb._packing.row(row))
    return gb._packing.element(rem, scale * row.den).vector()


class GroebnerBasis:
    """Reduced Groebner basis of a submodule, grown in place by `add`.

    `basis` is the reduced basis (primitive integer rows with positive lead
    coefficients, sorted by lead descending) between calls of `add` (`grow`
    leaves a basis that is not reduced), and `rows` and `elements` the same
    basis made monic, as Rows and as Vectors.  Generators may be Rows or
    Vectors.  `add` reduces new generators into it,
    processes S-pairs by the degree of their lcm, and among those of one
    degree in increasing order of their lcm term, and interreduces.
    Homogeneous input yields homogeneous output for any order.  The rows
    are also kept grouped by the slot of their lead (`_by_slot`), which is
    where a division looks for a divisor.

    Without a block split the degree is the top field of a term's code, so
    that is the normal strategy, smallest lcm first.  Under a block split
    every term below the split ranks below every term above it, whatever
    the degrees, and the normal strategy would finish the lower block
    before any pair above it; by degree, homogeneous rows are reduced one
    degree at a time, the sugar strategy for homogeneous input (Giovini,
    Mora, Niesi, Robbiano & Traverso 1991, "One sugar cube, please").  The
    order in which pairs are reduced does not change the reduced basis.

    Pairs form only between leads in one slot, and as each element b is
    appended two criteria of Gebauer & Möller (1988) choose its new pairs
    (`_new_pairs`), the same rule `_schreyer_lifts` lifts by:
    - M drops a new pair (i, b) when another new pair's lcm properly
      divides lcm(i, b);
    - F keeps one new pair per lcm.
    The heap `_pairs` holds (degree of lcm, -lcm, i, j), and every pair
    pushed is reduced when popped.

    The packing is sized from the data and widened (every row and the lcm
    of every queued pair repacked) when an input term or a queued lcm is
    above its capacity.  A division never creates a term above the degree
    of the term it reduces, and an S-vector none above its lcm: in a graded
    order that is so, and under a block split, which takes homogeneous rows
    only (`_extent`), every row and S-vector is homogeneous.
    """

    def __init__(self, module: FreeModule, gens=()):
        self.module = module
        self.basis: list[_Prepared] = []
        self._divisors: list[list[_Prepared]] = _by_slot([], module.rank)
        self._pairs: list[tuple[int, int, int, int]] = []
        self._packing: _Packing | None = None
        self._rows: tuple[Row, ...] | None = None
        self._elements: tuple[Vector, ...] | None = None
        self.add(gens)

    @property
    def rows(self) -> tuple[Row, ...]:
        if self._rows is None:
            self._rows = tuple(self._packing.element(b.row, b.coeff) for b in self.basis)
        return self._rows

    @property
    def elements(self) -> tuple[Vector, ...]:
        if self._elements is None:
            self._elements = tuple(r.vector() for r in self.rows)
        return self._elements

    def _changed(self) -> None:
        self._rows = self._elements = None

    def add(self, gens) -> bool:
        """Add generators and return whether the module grew.  If none was
        appended, no pair was queued and the basis is still reduced.  The
        packing is fitted to the generators' `vector_grading`s, which a Row
        that was graded in this module already holds."""
        gens = [r for r in map(as_row, gens) if r.terms]
        if not gens:
            return False
        self._fit(_extent(self.module, gens))
        size = len(self.basis)
        for g in gens:
            self._reduce_and_append(self._packing.row(g))
        if len(self.basis) == size:
            return False
        self._close()
        self._interreduce()
        self._changed()
        return True

    def grow(self, g: Row | Vector, degree: int | None = None) -> bool:
        """Whether the nonzero g lies outside the submodule; if it does, its
        remainder is appended.  First the queued pairs are processed: all of
        them, or with `degree` those whose lcm has degree at most that.

        This grows a Groebner basis that is not interreduced, truncated at
        `degree` when that is given (Kreuzer & Robbiano 2005, 4.5.B).  For
        homogeneous rows an S-vector is homogeneous of its lcm's degree, and
        the pairs are taken by that degree under any order, block split or
        not, so a basis closed up to degree d divides an element of degree
        at most d to zero exactly when it lies in the submodule.  The basis
        serves further calls of `grow` only: `add` and `elements` need the
        reduced basis.  g is graded by `vector_grading`, which reads back
        the grading of a Row that a caller graded in this module before.
        """
        g = as_row(g)
        self._fit(_extent(self.module, [g]))
        self._close(degree)
        size = len(self.basis)
        self._reduce_and_append(self._packing.row(g))
        self._changed()
        return len(self.basis) > size

    def _fit(self, degree: int) -> None:
        if self._packing is None:
            self._packing = _Packing(self.module, degree)
        elif degree > self._packing.capacity:
            self._widen(_Packing(self.module, degree))

    def _widen(self, new: _Packing) -> None:
        """Repack every row and the lcm of every queued pair into `new`: a
        term's degree does not depend on the packing, nor does the order of
        two terms, so each heap entry keeps its place."""
        old, self._packing = self._packing, new

        def move(code: int) -> int:
            return new.term(*old.decode(code))

        self.basis = [_Prepared({move(k): c for k, c in b.row.items()}, new) for b in self.basis]
        self._divisors = _by_slot(self.basis, self.module.rank)
        self._pairs = [(d, -move(-negated), i, j) for d, negated, i, j in self._pairs]

    def _close(self, degree: int | None = None) -> None:
        """Reduce the S-vectors of the queued pairs by the degree of their
        lcm, then in increasing order of the lcm: all of them, or those
        whose lcm has degree at most `degree`, the first ones popped."""
        while self._pairs and (degree is None or self._pairs[0][0] <= degree):
            _, _, i, j = heapq.heappop(self._pairs)
            self._reduce_and_append(self._spoly(i, j))

    def _remainder(self, row: dict[int, int]) -> tuple[int, dict[int, int]]:
        """(scale, remainder) of the packed row divided by the basis."""
        scale, _, rem = _divide(row, self._divisors, self._packing)
        return scale, rem

    def _spoly(self, i: int, j: int) -> dict[int, int]:
        """S-vector of basis elements i and j, leads in one slot
        (`_s_vector`)."""
        a, b = self.basis[i], self.basis[j]
        return _s_vector(a, b, self._packing.term(a.slot, tuple(map(max, a.exps, b.exps))))[4]

    def _primitive(self, row: dict[int, int]) -> _Prepared:
        """The row divided by its content, signed to a positive lead."""
        content = reduce(math.gcd, row.values())
        if row[min(row)] < 0:
            content = -content
        if content != 1:
            row = {k: c // content for k, c in row.items()}
        return _Prepared(row, self._packing)

    def _reduce_and_append(self, row: dict[int, int]) -> None:
        rem = self._remainder(row)[1]
        if not rem:
            return
        b = self._primitive(rem)
        packing, t = self._packing, len(self.basis)
        kept = _new_pairs(self.basis, b, packing)
        for lcm, i in kept.items():
            heapq.heappush(self._pairs, (packing.degree(lcm), -lcm, i, t))
        self.basis.append(b)
        self._divisors[b.slot].append(b)
        if kept:
            self._fit(max(map(packing.degree, kept)))

    def _interreduce(self) -> None:
        """Reduce the Groebner basis to the reduced basis, sorted by lead
        descending.

        It rests on one invariant: no lead divides a term of an earlier
        row.  The rows `add` started from are a reduced basis, so no lead
        among them divides a term of another, and each row appended since
        is the remainder of its division by every row before it.  A lead
        that divides a term of row i is therefore the lead of a row after
        i, and only those leads are checked, each term against those in
        its own slot as in a division (a tail term can lie in another slot
        than its row's lead).

        First drop every row whose lead such a later lead divides: leads
        are distinct, and those kept are the minimal ones.  Then divide the
        tail of each kept row with a term divisible by a later lead by the
        basis and put the lead back.  No lead divides a term below it, so
        whether a tail term is reducible depends only on the leads; each new
        tail is irreducible, and a second pass would change nothing.
        """
        divmask, slot_mask = self._packing.divmask, self._packing.slot_mask
        later: list[list[int]] = [[] for _ in range(self.module.rank)]
        kept: list[_Prepared] = []
        stale: set[_Prepared] = set()
        for b in reversed(self.basis):
            if not any(not (b.lead - a) & divmask for a in later[b.slot]):
                kept.append(b)
                if any(not (k - a) & divmask for k, _ in b.tail for a in later[k & slot_mask]):
                    stale.add(b)
            later[b.slot].append(b.lead)
        kept.sort(key=lambda b: b.lead)
        self.basis = kept
        self._divisors = _by_slot(kept, self.module.rank)
        for p in [p for p, b in enumerate(kept) if b in stale]:
            # a row is no divisor of its own tail, so it may stay in the basis
            scale, rem = self._remainder(dict(self.basis[p].tail))
            b = self.basis[p]
            self.basis[p] = self._primitive({b.lead: b.coeff * scale} | rem)
        if stale:
            self._divisors = _by_slot(self.basis, self.module.rank)


def buchberger(module: FreeModule, gens) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by gens."""
    return GroebnerBasis(module, gens)


def sorted_by_lead(module: FreeModule, rows) -> list[Row]:
    """The nonzero rows sorted by lead descending in module's term order
    (no block split), the order of `GroebnerBasis.rows`: by the key
    (-shifted degree, `_lead_key`) of each row's lead (`_lead`)."""
    def key(row: Row):
        return -vector_grading(module, row)[0], _lead_key(_lead(module, row))

    return sorted(map(as_row, rows), key=key)


def module_equal(module: FreeModule, gens_a, gens_b) -> bool:
    """Equality of generated submodules via reduced-basis uniqueness."""
    return buchberger(module, gens_a).rows == buchberger(module, gens_b).rows


def _schreyer_lifts(module: FreeModule, syz_module: FreeModule,
                    gens: list[Row]) -> list[Row] | None:
    """The syzygies of homogeneous nonzero gens read off their S-pair
    reductions (Schreyer; Eisenbud, Commutative Algebra, 15.10), or None
    when the S-vectors show that gens are not a Groebner basis.

    The pairs (i, j), i < j, are those Buchberger's loop queues and reduces
    as it appends g_j: leads in one slot, kept by criteria M and F
    (`_new_pairs`).  Each S-vector ma x^ga g_i - mb x^gb g_j is divided
    by gens with its quotients (`_divide`); the first nonzero remainder
    ends the search with None.  A zero remainder gives the lift

        scale * ma * x^ga * e_i - scale * mb * x^gb * e_j - sum(q_k * e_k),

    made primitive, homogeneous of the lcm's degree in syz_module (its memo
    says so).  When every S-vector reduces to zero, gens are a Groebner
    basis (Buchberger's criterion: the kept pairs' lead syzygies generate
    every pair's), and the lifts are a Groebner basis of the syzygies in
    Schreyer's order, where m * e_k ranks as m * lead(g_k) does and ties go
    to the higher k: the lift of (i, j) has the lead x^gb * e_j, and M and
    F drop only pairs whose lead a kept pair's lead divides, so the lifts'
    leads generate the whole lead module, and the lifts the syzygies.
    """
    packing = _Packing(module, _extent(module, gens))
    prepared = [_Prepared(packing.row(g), packing) for g in gens]
    divisors = _by_slot(prepared, module.rank)
    key = (syz_module.shifts, syz_module.order.weights)
    lifts = []
    for j, b in enumerate(prepared):
        for lcm, i in _new_pairs(prepared[:j], b, packing).items():
            ma, ga, mb, gb, s = _s_vector(prepared[i], b, lcm)
            scale, quotients, rem = _divide(s, divisors, packing, want_quotients=True)
            if rem:
                return None
            # packing.row clears each generator's denominator: put it back
            terms = {(k, packing.decode(m)[1]): -c * gens[k].den
                     for k, a in enumerate(prepared) for m, c in quotients[a].items()}
            terms[(i, packing.decode(ga)[1])] = scale * ma * gens[i].den
            terms[(j, packing.decode(gb)[1])] = -scale * mb * gens[j].den
            content = reduce(math.gcd, terms.values())
            lifts.append(Row({t: c // content for t, c in terms.items()}, 1, syz_module.rank,
                             module.nvars, (key, (packing.degree(lcm), True))))
    return lifts


def syzygies(module: FreeModule, gens, relations=(), _with_image: bool = False) -> tuple:
    """Generators of {c : sum(c_i * gens[i]) lies in the submodule generated
    by relations}, the syzygies of gens modulo relations, in the free module
    whose slot i carries the degree of gens[i] (`vector_grading`, read back
    from a Row that was graded in module before).

    Homogeneous nonzero generators with no relations take one of two early
    paths.  When their leads lie in distinct slots they have no syzygy
    (`_leads_in_distinct_slots`), and it returns none before building
    anything.  Otherwise, when they form a Groebner basis, as D(f)'s reduced
    basis does, it returns the lifts of their S-pairs (`_schreyer_lifts`), a
    Groebner basis of the syzygies in Schreyer's order, not the reduced one
    in syz_module's.

    Otherwise it eliminates the ambient block from the module generated by
    (g_i, e_i) and (r, 0) in the ambient ⊕ that free module; this is the
    one place a block split is built.  Each of those rows is homogeneous of
    the degree of g_i or r, which goes into its memo as it is built, for
    the engine to read back.  Homogeneous input that gets here (with
    relations, or not a Groebner basis) gives the reduced basis of the
    result, which is homogeneous.  Otherwise every generator and
    relation is first homogenized to its degree with a new last variable h
    of weight 1, and h is set to 1 in the result, a generating set:
    homogenizing to a fixed degree is linear, so every solution c, with
    sum(c_i g_i) = sum(a_j r_j), lifts to a graded one.

    `_with_image`, for inhomogeneous input only (ValueError otherwise),
    adds a third item: the ambient block of each row of the block-split
    basis whose lead lies in that block, in its order, made monic.  Under
    the elimination order these rows are the reduced basis of the
    submodule that the homogenized generators and relations generate in
    `homogenized(module)` (Eisenbud, Commutative Algebra, 15.10).
    """
    if module.block_split is not None:
        raise ValueError("nested block splits are not supported")
    gens = [as_row(g) for g in gens]
    relations = [r for r in map(as_row, relations) if r.terms]
    gradings = [vector_grading(module, g) for g in gens]
    relation_gradings = [vector_grading(module, r) for r in relations]
    degrees = tuple(d for d, _ in gradings)
    syz_module = FreeModule(module.nvars, degrees, module.order)
    homogeneous = all(h for _, h in gradings + relation_gradings)
    if _with_image and homogeneous:
        raise ValueError("the image is kept for inhomogeneous input only")
    if homogeneous and not relations and all(g.terms for g in gens):
        if len(gens) <= module.rank and _leads_in_distinct_slots([_lead(module, g) for g in gens]):
            return syz_module, []
        lifts = _schreyer_lifts(module, syz_module, gens)
        if lifts is not None:
            return syz_module, lifts
    if not homogeneous:
        gens = [homogenize_vector(module, g, d) for g, d in zip(gens, degrees)]
        relations = [
            homogenize_vector(module, r, d) for r, (d, _) in zip(relations, relation_gradings)
        ]
        module = homogenized(module)
    rank, size, one = module.rank, module.rank + len(gens), (0,) * module.nvars
    ext = FreeModule(module.nvars, module.shifts + degrees, module.order, block_split=rank)
    key = (ext.shifts, ext.order.weights)
    # each row is now homogeneous, (g_i, e_i) of degree d_i: its memo says so
    ext_gens = [Row(g.terms | {(rank + i, one): g.den}, g.den, size, module.nvars,
                    (key, (d, True))) for i, (g, d) in enumerate(zip(gens, degrees))]
    ext_gens += [Row(r.terms, r.den, size, module.nvars, (key, (d, True)))
                 for r, (d, _) in zip(relations, relation_gradings)]
    gb = buchberger(ext, ext_gens)
    # an element has a zero leading block exactly when its lead is below
    # the split, and then every term is: those rows are the syzygies
    packing = gb._packing
    syz = [packing.element(b.row, b.coeff, rank) for b in gb.basis if b.slot >= rank]
    if not homogeneous:
        syz = [dehomogenize_vector(s) for s in syz]
    if not _with_image:
        return syz_module, syz
    image = tuple(packing.element(b.row, b.coeff, 0, rank) for b in gb.basis if b.slot < rank)
    return syz_module, syz, image


def intersect(module: FreeModule, gens_a, gens_b) -> list[Row]:
    """Reduced Groebner basis of the intersection of two submodules: the
    combinations sum(c_i * a_i) over the syzygies c of A modulo B.  Output
    is homogeneous whenever both inputs are."""
    rows_a = [as_row(g) for g in gens_a]
    _, syz = syzygies(module, rows_a, gens_b)
    return list(buchberger(module, [combination(c, rows_a) for c in syz]).rows)


def module_quotient(module: FreeModule, gens_n, gens_m) -> list[Row]:
    """Reduced basis of the ideal (N : M) = {s : s*M ⊆ N}, as `buchberger`'s
    rows of rank 1, the unit row when M has no generators: the kernel of
    s -> (s*g_1, ..., s*g_k) into k copies of F/N (Greuel & Pfister, A
    Singular Introduction to Commutative Algebra, 2.8), that is, the
    syzygies of the stacked element (g_1, ..., g_k) of F^k modulo N placed
    in each copy."""
    rows_n, rows_m = [as_row(g) for g in gens_n], [as_row(g) for g in gens_m]
    if not rows_m:
        return [Row.unit(0, 1, module.nvars)]
    nvars, rank, k = module.nvars, module.rank, len(rows_m)
    stacked = FreeModule(nvars, module.shifts * k, module.order)

    def placed(row: Row, j: int) -> Row:  # row in copy j of the ambient
        terms = {(s + j * rank, e): c for (s, e), c in row.terms.items()}
        return Row(terms, row.den, rank * k, nvars)

    ones = Row({(j, (0,) * nvars): 1 for j in range(k)}, 1, k, nvars)
    element = combination(ones, [placed(g, j) for j, g in enumerate(rows_m)])
    relations = [placed(n, j) for j in range(k) for n in rows_n]
    _, colon = syzygies(stacked, [element], relations)
    return list(buchberger(ring_module(module.nvars, module.order), colon).rows)
