"""Buchberger Groebner bases for submodules of shifted free modules.

Elements of a free module of rank r are tuples of r polynomials.  A term of
an element is a pair (slot, exponents); terms are compared by shifted
weighted degree first (so a graded order on the module refines the grading),
then by the ring order's reverse-lexicographic tie-break, with lower slot
index winning ties.  An optional block split turns the order into an
elimination order for the leading block of slots.

Inside the engine (`GroebnerBasis`, division, S-vectors, interreduction) an
element is an integer row: a dict from packed term to int.  A packed term
is one int whose integer order is the term order (`_Packing`), so
multiplying by a monomial is an int addition and the division heap holds
bare ints.  Basis rows are primitive (content 1) with a positive lead
coefficient, and division is fraction-free, so no Fraction arithmetic runs
inside Buchberger's loop.  Rationals appear only at the edge: `add`,
`divide` and `normal_form` clear the denominators of their input, and
`elements`, `divide` and `normal_form` return Fraction polynomials; the
elements are made monic there.

`syzygies(module, gens, relations)` is the one kernel routine, and the only
one that eliminates: it returns the c with sum(c_i * gens[i]) in the
submodule generated by relations (Singular's `modulo`).  `intersect` and
`module_quotient` are calls to it.  Polynomial gcds and exact division by
one polynomial need no Groebner basis; they live in `poly`.

`vector_grading` is the one reader of an element's degree (its largest
shifted weighted degree), and `homogenize_vector` the one way to pad an
element up to a degree, with a new last variable h of weight 1
(`homogenized`); `syzygies` and `homog` both homogenize through it.

`GroebnerBasis` is the one Buchberger engine: a reduced basis with its leads
prepared for division, grown in place by `add`.

Everything is exact over Q and deterministic: bases are fully interreduced,
made monic and sorted, so the reduced basis of a module under a fixed order
is unique and normal forms are canonical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .poly import (
    Exponents,
    MonomialOrder,
    Polynomial,
    weighted_degree,
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
    leading block, regardless of degree.
    """

    nvars: int
    shifts: tuple[int, ...]
    order: MonomialOrder
    block_split: int | None = None

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def zero_vector(self) -> Vector:
        return tuple(Polynomial.zero(self.nvars) for _ in range(self.rank))

    def unit_vector(self, slot: int) -> Vector:
        one = Polynomial.constant(1, self.nvars)
        zero = Polynomial.zero(self.nvars)
        return tuple(one if i == slot else zero for i in range(self.rank))


def ring_module(nvars: int, order: MonomialOrder) -> FreeModule:
    return FreeModule(nvars, (0,), order)


def vec_is_zero(vec: Vector) -> bool:
    return all(p.is_zero() for p in vec)


def vec_sort_key(vec: Vector) -> tuple:
    return tuple(p.sort_key() for p in vec)


def vector_grading(module: FreeModule, vec: Vector) -> tuple[int, bool]:
    """Largest shifted weighted degree of vec's terms (0 for the zero
    vector), and whether every term has it."""
    weights = module.order.weights
    degrees = {
        weighted_degree(exps, weights) + shift
        for shift, p in zip(module.shifts, vec)
        for exps in p.terms
    }
    return max(degrees, default=0), len(degrees) < 2


def vector_degree(module: FreeModule, vec: Vector) -> int:
    """The common degree of a nonzero homogeneous element (ValueError for
    any other)."""
    degree, homogeneous = vector_grading(module, vec)
    if not homogeneous or vec_is_zero(vec):
        raise ValueError("only a nonzero homogeneous element has a degree")
    return degree


def homogenized(module: FreeModule) -> FreeModule:
    """The module with the same shifts over one more variable h, last, of
    weight 1: where `homogenize_vector` puts the elements of module."""
    weights = module.order.weights + (1,)
    return FreeModule(module.nvars + 1, module.shifts, MonomialOrder(weights))


def homogenize_vector(module: FreeModule, vec: Vector, degree: int | None = None) -> Vector:
    """Pad every term of vec with a power of h up to shifted weighted degree
    `degree` (default: the largest, `vector_grading`), which gives a
    homogeneous element of `homogenized(module)`; raises FiltrationError
    when a term is above `degree`.  The zero vector pads to zero."""
    if degree is None:
        degree = vector_grading(module, vec)[0]
    weights = module.order.weights
    return tuple(p.homogenize(degree - s, weights) for p, s in zip(vec, module.shifts))


def dehomogenize_vector(vec: Vector) -> Vector:
    """Set h to 1 in every slot; inverts `homogenize_vector`."""
    return tuple(p.set_last_var_one() for p in vec)


class FieldOverflow(ValueError):
    """A term created inside a division outgrew its packed exponent field.
    The engine catches it, widens the fields and starts the step again."""


class _Packing:
    """Packed terms of one module, for terms of shifted degree up to
    `capacity`: the fields of a packing made for `degree` hold exponents up
    to twice degree - min(shifts), so the lcm of two leads of that degree
    fits too.

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
        self.width = max(2 * (degree - low), 1).bit_length()
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

    def wider(self) -> "_Packing":
        """The smallest packing that fits a term past the capacity."""
        return _Packing(self.module, self.capacity + 1)

    def term(self, slot: int, exps: Exponents) -> int:
        return self.one[slot] + sum(map(mul, exps, self.place))

    def decode(self, code: int) -> FlatTerm:
        largest = self.largest
        return code & self.slot_mask, tuple([(code >> p) & largest for p in self.positions])

    def degree(self, code: int) -> int:
        """Shifted weighted degree of a term."""
        return self.top - ((code >> self.deg_pos) & self.deg_mask)

    def row(self, vec: Vector) -> dict[int, int]:
        """vec times the lcm of its denominators (`_denominator`), as an
        integer row.  Its terms must fit."""
        den = _denominator(vec)
        return {
            self.term(slot, exps): c.numerator * (den // c.denominator)
            for slot, p in enumerate(vec)
            for exps, c in p.terms.items()
        }

    def vector(self, row: dict[int, int], den: int) -> Vector:
        """The rational vector row / den."""
        comps: list[dict] = [{} for _ in range(self.module.rank)]
        for code, c in row.items():
            slot, exps = self.decode(code)
            comps[slot][exps] = Fraction(c) if den == 1 else Fraction(c, den)
        nvars = self.module.nvars
        zero = Polynomial.zero(nvars)
        return tuple(Polynomial._raw(nvars, d) if d else zero for d in comps)


def _denominator(vec: Vector) -> int:
    return reduce(math.lcm, (c.denominator for p in vec for c in p.terms.values()), 1)


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


def _divide(
    row: dict[int, int],
    basis: list[_Prepared],
    divmask: int,
    check: int = 0,
    want_quotients: bool = False,
):
    """Fraction-free full division: returns (scale, quotients, remainder)
    with scale * row == sum(q_i * basis_i) + remainder, where q_i maps the
    code of a monomial to its coefficient.  scale is a product of lead
    coefficients, positive when they are.

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

    With `check` (the packing's guard bits) every term the division creates
    is checked for a field overflow (FieldOverflow); without it the caller
    guarantees that none can occur.
    """
    work = dict(row)
    heap = list(work)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    scale = 1
    remainder: dict[int, int] = {}
    quotients: dict[_Prepared, dict[int, int]] = {b: {} for b in basis} if want_quotients else {}
    while heap:
        t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        for b in basis:
            gamma = t - b.lead
            if gamma & divmask:
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
                    if check and k & check:
                        raise FieldOverflow("a term outgrew its packed exponent field")
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
    return scale, [quotients[b] for b in basis] if want_quotients else [], remainder


def _grading(module: FreeModule, vectors: list[Vector]) -> tuple[int, bool]:
    """The largest shifted degree of a term of vectors, and whether a
    division by them can create a term above the degree of the term it
    reduces: that takes a block split and an inhomogeneous element."""
    gradings = [vector_grading(module, v) for v in vectors]
    loose = module.block_split is not None and not all(h for _, h in gradings)
    return max(d for d, _ in gradings), loose


def divide(module: FreeModule, vec: Vector, basis_vectors) -> tuple[list[Vector], Vector]:
    """Divide vec by the basis, returning (quotients, remainder) with
    vec == sum(q_i * b_i) + remainder."""
    basis = list(basis_vectors)
    live = [i for i, b in enumerate(basis) if not vec_is_zero(b)]
    degree, loose = _grading(module, [vec] + [basis[i] for i in live])
    packing = _Packing(module, degree)
    while True:
        prepared = [_Prepared(packing.row(basis[i]), packing) for i in live]
        try:
            scale, quotient_rows, rem = _divide(
                packing.row(vec), prepared, packing.divmask,
                packing.guard if loose else 0, want_quotients=True,
            )
            break
        except FieldOverflow:
            packing = packing.wider()
    den = scale * _denominator(vec)
    quotients = [Polynomial.zero(module.nvars) for _ in basis]
    for pos, q in zip(live, quotient_rows):
        cleared = _denominator(basis[pos])
        quotients[pos] = Polynomial._raw(module.nvars, {
            packing.decode(g + packing.one[0])[1]: Fraction(c * cleared, den)
            for g, c in q.items()
        })
    return quotients, packing.vector(rem, den)


def normal_form(module: FreeModule, vec: Vector, gb: GroebnerBasis) -> Vector:
    """The remainder of vec divided by the reduced basis gb: zero exactly
    when vec lies in the submodule, and the same for any two vectors with
    the same class modulo it."""
    gb._fit(vector_grading(module, vec)[0])
    scale, rem = gb._remainder(lambda: gb._packing.row(vec))
    return gb._packing.vector(rem, scale * _denominator(vec))


class GroebnerBasis:
    """Reduced Groebner basis of a submodule, grown in place by `add`.

    `basis` is the reduced basis (primitive integer rows with positive lead
    coefficients, sorted by lead descending) between calls, and `elements`
    the same basis made monic.  `add` reduces new generators into it,
    processes S-pairs in increasing order of their lcm term (normal
    strategy) and interreduces.  Homogeneous input yields homogeneous output
    for any order.

    Pairs form only between leads in one slot, and the Gebauer–Möller
    update (Gebauer & Möller 1988, after Buchberger's 1979 chain criterion)
    prunes them as each element b is appended:
    - B drops a queued pair (i, j) when lead(b) divides lcm(i, j) and both
      lcm(i, b) and lcm(j, b) differ from it;
    - M drops a new pair (i, b) when another new pair's lcm properly
      divides lcm(i, b);
    - F keeps one new pair per lcm, and in rank 1 drops the whole group
      when one of its pairs has coprime leads.
    The coprime rule stays in rank 1 because it rests on the Koszul syzygy
    g_b * g_i - g_i * g_b = 0, and two elements of a free module of higher
    rank have no product: over equal shifts, (x, 1) and (y, 0) have coprime
    leads x and y in slot 0, and their S-vector (0, y) is reducible by
    neither.  Queued pairs live in `_queued`, (i, j) -> lcm term, beside
    the heap of (-lcm, i, j); a popped pair no longer in it was pruned and
    is skipped.

    The packing is sized from the data and widened (every row, queued lcm
    and the pair heap repacked) when an input term or a queued lcm is above
    its capacity.  In a graded order a division never creates a term above
    the degree of the term it reduces, and an S-vector none above its lcm.
    With a block split and an inhomogeneous generator (`_loose`) a lower
    block tail can rise above its lead, so there every created term is
    checked and an overflowing step is widened and started again.
    """

    def __init__(self, module: FreeModule, gens=()):
        self.module = module
        self.basis: list[_Prepared] = []
        self._pairs: list[tuple[int, int, int]] = []
        self._queued: dict[tuple[int, int], int] = {}
        self._packing: _Packing | None = None
        self._loose = False
        self._elements: tuple[Vector, ...] | None = ()
        self.add(gens)

    @property
    def elements(self) -> tuple[Vector, ...]:
        if self._elements is None:
            self._elements = tuple(self._packing.vector(b.row, b.coeff) for b in self.basis)
        return self._elements

    def add(self, gens) -> bool:
        """Add generators and return whether the module grew.  If none was
        appended, no pair was queued and the basis is still reduced."""
        gens = [g for g in gens if not vec_is_zero(g)]
        if not gens:
            return False
        degree, loose = _grading(self.module, gens)
        self._fit(degree)
        self._loose |= loose
        size = len(self.basis)
        for g in gens:
            self._reduce_and_append(lambda: self._packing.row(g))
        if len(self.basis) == size:
            return False
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            if self._queued.pop((i, j), None) is not None:
                self._reduce_and_append(lambda: self._spoly(i, j))
        self._interreduce()
        self._elements = None
        return True

    def _fit(self, degree: int) -> None:
        if self._packing is None:
            self._packing = _Packing(self.module, degree)
        elif degree > self._packing.capacity:
            self._widen(_Packing(self.module, degree))

    def _widen(self, new: _Packing) -> None:
        old, self._packing = self._packing, new

        def move(code: int) -> int:
            return new.term(*old.decode(code))

        self.basis = [_Prepared({move(k): c for k, c in b.row.items()}, new) for b in self.basis]
        self._queued = {pair: move(lcm) for pair, lcm in self._queued.items()}
        self._pairs = [(-lcm, i, j) for (i, j), lcm in self._queued.items()]
        heapq.heapify(self._pairs)

    def _remainder(self, make_row, skip: int | None = None) -> tuple[int, dict[int, int]]:
        """(scale, remainder) of the row make_row() builds, divided by the
        basis less element `skip`.  On a field overflow the packing is
        widened and the row built and divided again."""
        while True:
            packing = self._packing
            basis = self.basis if skip is None else self.basis[:skip] + self.basis[skip + 1:]
            try:
                scale, _, rem = _divide(
                    make_row(), basis, packing.divmask, packing.guard if self._loose else 0
                )
                return scale, rem
            except FieldOverflow:
                self._widen(packing.wider())

    def _spoly(self, i: int, j: int) -> dict[int, int]:
        """S-vector (lc_b/h) * x^ga * a - (lc_a/h) * x^gb * b of basis
        elements i and j, leads in one slot, h = gcd(lc_a, lc_b)."""
        a, b = self.basis[i], self.basis[j]
        packing = self._packing
        lcm = packing.term(a.slot, tuple(map(max, a.exps, b.exps)))
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
        if self._loose and any(k & packing.guard for k in out):
            raise FieldOverflow("an S-vector term outgrew its packed exponent field")
        return out

    def _primitive(self, row: dict[int, int]) -> _Prepared:
        """The row divided by its content, signed to a positive lead."""
        content = reduce(math.gcd, row.values())
        if row[min(row)] < 0:
            content = -content
        if content != 1:
            row = {k: c // content for k, c in row.items()}
        return _Prepared(row, self._packing)

    def _reduce_and_append(self, make_row) -> None:
        rem = self._remainder(make_row)[1]
        if not rem:
            return
        b = self._primitive(rem)
        packing, basis, queued = self._packing, self.basis, self._queued
        divmask = packing.divmask
        slot, lead, t = b.slot, b.lead, len(basis)
        lcms = {
            i: packing.term(slot, tuple(map(max, a.exps, b.exps)))
            for i, a in enumerate(basis)
            if a.slot == slot
        }
        # B: b links i and j by two pairs whose lcms properly divide lcm(i, j)
        for pair in [
            (i, j)
            for (i, j), lcm in queued.items()
            if not (lcm - lead) & divmask and lcms[i] != lcm and lcms[j] != lcm
        ]:
            del queued[pair]
        # M keeps the new pairs of minimal lcm, F one pair per lcm
        distinct = set(lcms.values())
        kept: dict[int, int] = {}
        coprime: set[int] = set()
        one = packing.one[slot]
        for i, lcm in lcms.items():
            if any(m != lcm and not (lcm - m) & divmask for m in distinct):
                continue
            kept.setdefault(lcm, i)
            if self.module.rank == 1 and lcm == basis[i].lead + lead - one:
                coprime.add(lcm)
        new = [(lcm, i) for lcm, i in kept.items() if lcm not in coprime]
        for lcm, i in new:
            queued[(i, t)] = lcm
            heapq.heappush(self._pairs, (-lcm, i, t))
        basis.append(b)
        if new:
            self._fit(max(packing.degree(lcm) for lcm, _ in new))

    def _interreduce(self) -> None:
        """Reduce the Groebner basis to the reduced basis, sorted by lead
        descending.

        First drop every element whose lead is divisible by the lead of
        another kept element (processing leads in ascending order, so
        divisors are seen first).  Then divide each kept element with a
        reducible tail term by the others, in place.  On this minimal basis
        no lead divides another, so every lead survives its division, and
        whether a tail term is reducible depends only on the leads (a lead
        never divides a term below it); each remainder therefore has an
        irreducible tail, and a second pass would change nothing.
        """
        divmask = self._packing.divmask
        kept: list[_Prepared] = []
        for b in sorted(self.basis, key=lambda b: b.lead, reverse=True):
            if all((b.lead - k.lead) & divmask for k in kept):
                kept.append(b)
        # kept is in ascending term order with distinct leads
        kept.reverse()
        self.basis = kept
        for i in range(len(kept)):
            divmask = self._packing.divmask
            leads = [a.lead for a in self.basis]
            if any(not (k - lead) & divmask for k, _ in self.basis[i].tail for lead in leads):
                rem = self._remainder(lambda: self.basis[i].row, skip=i)[1]
                self.basis[i] = self._primitive(rem)


def buchberger(module: FreeModule, gens) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by gens."""
    return GroebnerBasis(module, gens)


def module_equal(module: FreeModule, gens_a, gens_b) -> bool:
    """Equality of generated submodules via reduced-basis uniqueness."""
    return buchberger(module, gens_a).elements == buchberger(module, gens_b).elements


def syzygies(module: FreeModule, gens, relations=()) -> tuple[FreeModule, list[Vector]]:
    """Generators of {c : sum(c_i * gens[i]) lies in the submodule generated
    by relations}, the syzygies of gens modulo relations, in the free module
    whose slot i carries the degree of gens[i] (`vector_grading`).

    Eliminates the ambient block from the module generated by (g_i, e_i) and
    (r, 0) in the ambient ⊕ that free module; this is the one place a block
    split is built.  Homogeneous input gives the reduced basis of the
    result, which is homogeneous.  Otherwise every generator and relation is
    first homogenized to its degree with a new last variable h of weight 1,
    and h is set to 1 in the result, a generating set: homogenizing to a
    fixed degree is linear, so every solution c, with sum(c_i g_i) =
    sum(a_j r_j), lifts to a graded one.
    """
    if module.block_split is not None:
        raise ValueError("nested block splits are not supported")
    gens, relations = list(gens), list(relations)
    gradings = [vector_grading(module, g) for g in gens]
    degrees = tuple(d for d, _ in gradings)
    syz_module = units = FreeModule(module.nvars, degrees, module.order)
    homogeneous = all(h for _, h in gradings + [vector_grading(module, r) for r in relations])
    if not homogeneous:
        gens = [homogenize_vector(module, g, d) for g, d in zip(gens, degrees)]
        relations = [homogenize_vector(module, r) for r in relations]
        module, units = homogenized(module), homogenized(syz_module)
    rank = module.rank
    ext = FreeModule(module.nvars, module.shifts + degrees, module.order, block_split=rank)
    ext_gens = [tuple(g) + units.unit_vector(i) for i, g in enumerate(gens)]
    ext_gens += [tuple(r) + units.zero_vector() for r in relations]
    # an element has a zero leading block exactly when its lead is below
    # the split, so only those rows are made monic vectors
    gb = buchberger(ext, ext_gens)
    syz = [gb._packing.vector(b.row, b.coeff)[rank:] for b in gb.basis if b.slot >= rank]
    if not homogeneous:
        syz = [dehomogenize_vector(s) for s in syz]
    return syz_module, syz


def intersect(module: FreeModule, gens_a, gens_b) -> list[Vector]:
    """Reduced Groebner basis of the intersection of two submodules: the
    combinations sum(c_i * a_i) over the syzygies c of A modulo B.  Output
    is homogeneous whenever both inputs are."""
    gens_a = list(gens_a)
    _, syz = syzygies(module, gens_a, gens_b)
    combinations = []
    for c in syz:
        total = module.zero_vector()
        for coeff, a in zip(c, gens_a):
            total = tuple(t + coeff * p for t, p in zip(total, a))
        combinations.append(total)
    return list(buchberger(module, combinations).elements)


def module_quotient(module: FreeModule, gens_n, gens_m) -> list[Polynomial]:
    """Ideal (N : M) = {s : s*M ⊆ N}: the intersection over the generators
    g of M of (N : g), the syzygies of g modulo N."""
    gens_n = list(gens_n)
    ring = ring_module(module.nvars, module.order)
    ideal = None
    for g in gens_m:
        _, colon = syzygies(module, [g], gens_n)
        ideal = colon if ideal is None else intersect(ring, ideal, colon)
    if ideal is None:
        return [Polynomial.constant(1, module.nvars)]
    return [v[0] for v in buchberger(ring, ideal).elements]
