"""Buchberger Groebner bases for submodules of shifted free modules.

Elements of a free module of rank r are tuples of r polynomials.  A term of
an element is a pair (slot, exponents); terms are compared by shifted
weighted degree first (so a graded order on the module refines the grading),
then by the ring order, with lower slot index winning ties.  An optional
block split turns the order into an elimination order for the leading block
of slots; it is the one elimination mechanism, used both for syzygies and
for intersections (in F ⊕ F).  `FreeModule.desc_key` is the one definition
of this order: ascending in it is descending term order.

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
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import (
    Exponents,
    MonomialOrder,
    Polynomial,
    degree_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    weighted_degree,
)

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
    # desc_key memo; it lives and dies with this module
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.shifts)

    def desc_key(self, term: FlatTerm) -> tuple:
        """Sort key of a term: ascending in it is descending term order.

        Leading block first, then shifted weighted degree, the ring order's
        reverse-lexicographic tie-break, and lower slot first.
        """
        key = self._keys.get(term)
        if key is None:
            slot, exps = term
            block = 1 if self.block_split is None or slot < self.block_split else 0
            wdeg, tail = self.order.key_parts(exps)
            key = (-block, -(wdeg + self.shifts[slot]), tuple(-e for e in tail), slot)
            self._keys[term] = key
        return key

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


def vec_poly_mul(a: Vector, p: Polynomial) -> Vector:
    return tuple(q * p for q in a)


def vec_sort_key(vec: Vector) -> tuple:
    return tuple(p.sort_key() for p in vec)


def flatten(vec: Vector) -> dict[FlatTerm, Fraction]:
    flat: dict[FlatTerm, Fraction] = {}
    for slot, p in enumerate(vec):
        for exps, c in p.terms.items():
            flat[(slot, exps)] = c
    return flat


def unflatten(module: FreeModule, flat: dict[FlatTerm, Fraction]) -> Vector:
    comps: list[dict] = [{} for _ in range(module.rank)]
    for (slot, exps), c in flat.items():
        comps[slot][exps] = c
    return tuple(Polynomial._raw(module.nvars, d) for d in comps)


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


class _Prepared:
    """Basis element with cached lead data for the division loop."""

    __slots__ = ("flat", "slot", "exps", "coeff", "key")

    def __init__(self, module: FreeModule, flat: dict[FlatTerm, Fraction]):
        self.flat = flat
        lead = min(flat, key=module.desc_key)
        self.slot, self.exps = lead
        self.coeff = flat[lead]
        self.key = module.desc_key(lead)


def _divide_flat(
    module: FreeModule,
    flat: dict[FlatTerm, Fraction],
    basis: list[_Prepared],
    want_quotients: bool = False,
):
    """Full division: returns (quotients, remainder flat).

    The remainder contains no term divisible by any basis lead; with a
    reduced basis it is the canonical normal form.  Terms are taken largest
    first from a heap of their desc_keys.  A reduction step only adds terms
    below the one it removes, so each term is handled once and the remainder
    is built in descending order.  A term that is cancelled and recreated
    while its entry is still queued gets a second entry; the first one
    popped handles it and the term leaves `work`, so the other is skipped.
    """
    key = module.desc_key
    work = dict(flat)
    heap = [(key(t), t) for t in work]
    heapq.heapify(heap)
    remainder: dict[FlatTerm, Fraction] = {}
    quotients: list[dict[Exponents, Fraction]] = [{} for _ in basis] if want_quotients else []
    while heap:
        term = heapq.heappop(heap)[1]
        coeff = work.get(term)
        if coeff is None:
            continue
        slot, exps = term
        for idx, b in enumerate(basis):
            if b.slot == slot and mono_divides(b.exps, exps):
                gamma = mono_div(exps, b.exps)
                factor = coeff / b.coeff
                for (s2, e2), c2 in b.flat.items():
                    t2 = (s2, mono_mul(e2, gamma))
                    old = work.get(t2)
                    if old is None:
                        work[t2] = -factor * c2
                        heapq.heappush(heap, (key(t2), t2))
                    else:
                        s = old - factor * c2
                        if s:
                            work[t2] = s
                        else:
                            del work[t2]
                if want_quotients:
                    q = quotients[idx]
                    q[gamma] = q.get(gamma, 0) + factor
                break
        else:
            remainder[term] = coeff
            del work[term]
    return quotients, remainder


def divide(module: FreeModule, vec: Vector, basis_vectors) -> tuple[list[Vector], Vector]:
    """Divide vec by the basis, returning (quotients, remainder) with
    vec == sum(q_i * b_i) + remainder."""
    basis = list(basis_vectors)
    live = [i for i, b in enumerate(basis) if not vec_is_zero(b)]
    prepared = [_Prepared(module, flatten(basis[i])) for i in live]
    quotients_flat, rem = _divide_flat(module, flatten(vec), prepared, want_quotients=True)
    quotients = [Polynomial.zero(module.nvars) for _ in basis]
    for pos, qf in zip(live, quotients_flat):
        quotients[pos] = Polynomial._raw(module.nvars, {e: c for e, c in qf.items() if c})
    return quotients, unflatten(module, rem)


def normal_form(module: FreeModule, vec: Vector, gb: GroebnerBasis) -> Vector:
    _, rem = _divide_flat(module, flatten(vec), gb.basis)
    return unflatten(module, rem)


def _spoly_flat(module: FreeModule, a: _Prepared, b: _Prepared) -> dict[FlatTerm, Fraction]:
    """S-vector of two basis elements with leads in one slot; basis
    elements are monic, so no coefficient scaling is needed."""
    lcm = mono_lcm(a.exps, b.exps)
    ga, gb = mono_div(lcm, a.exps), mono_div(lcm, b.exps)
    out: dict[FlatTerm, Fraction] = {}
    for (s, e), c in a.flat.items():
        key = (s, mono_mul(e, ga))
        out[key] = out.get(key, 0) + c
    for (s, e), c in b.flat.items():
        key = (s, mono_mul(e, gb))
        v = out.get(key, 0) - c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return {k: v for k, v in out.items() if v}


def _ascending(key: tuple) -> tuple:
    """Negate a desc_key: ascending in the result is ascending term order."""
    block, wdeg, rexps, slot = key
    return (-block, -wdeg, tuple(-e for e in rexps), -slot)


class GroebnerBasis:
    """Reduced Groebner basis of a submodule, grown in place by `add`.

    `basis` is the reduced basis (monic, sorted by lead descending) between
    calls.  `add` reduces new generators into it, processes S-pairs in
    increasing order of their lcm term (normal strategy; the coprime-lcm
    criterion only in rank 1, where it is valid) and interreduces.
    Homogeneous input yields homogeneous output for any order.
    """

    def __init__(self, module: FreeModule, gens=()):
        self.module = module
        self.basis: list[_Prepared] = []
        self._pairs: list[tuple[tuple, int, int]] = []
        self.add(gens)

    @property
    def elements(self) -> tuple[Vector, ...]:
        return tuple(unflatten(self.module, b.flat) for b in self.basis)

    def add(self, gens) -> bool:
        """Add generators and return whether the module grew.  If none was
        appended, no pair was queued and the basis is still reduced."""
        size = len(self.basis)
        for g in gens:
            if not vec_is_zero(g):
                self._reduce_and_append(flatten(g))
        if len(self.basis) == size:
            return False
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            s = _spoly_flat(self.module, self.basis[i], self.basis[j])
            if s:
                self._reduce_and_append(s)
        self.basis = _interreduce(self.module, self.basis)
        return True

    def _reduce_and_append(self, flat: dict[FlatTerm, Fraction]) -> None:
        module, basis = self.module, self.basis
        _, rem = _divide_flat(module, flat, basis)
        if not rem:
            return
        inv = 1 / rem[min(rem, key=module.desc_key)]
        b = _Prepared(module, {t: c * inv for t, c in rem.items()})
        for i, a in enumerate(basis):
            if a.slot != b.slot:
                continue
            if module.rank == 1 and all(
                x == 0 or y == 0 for x, y in zip(a.exps, b.exps)
            ):
                continue
            lcm = mono_lcm(a.exps, b.exps)
            pair_key = _ascending(module.desc_key((a.slot, lcm)))
            heapq.heappush(self._pairs, (pair_key, i, len(basis)))
        basis.append(b)


def buchberger(module: FreeModule, gens) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by gens."""
    return GroebnerBasis(module, gens)


def _interreduce(module: FreeModule, basis: list[_Prepared]) -> list[_Prepared]:
    """Reduce a Groebner basis to the reduced basis, sorted by lead descending.

    First drop every element whose lead is divisible by the lead of another
    kept element (processing leads in ascending order, so divisors are seen
    first).  Then one pass divides each kept element by the others.  On this
    minimal basis no lead divides another, so every lead survives its
    division, and whether a tail term is reducible depends only on the
    leads; each remainder therefore has an irreducible tail, and a second
    pass would change nothing.  Basis elements are monic and keep their
    leads, so the remainders are monic too.
    """
    items = sorted(basis, key=lambda b: b.key, reverse=True)
    kept: list[_Prepared] = []
    for b in items:
        redundant = any(
            k.slot == b.slot and mono_divides(k.exps, b.exps) for k in kept
        )
        if not redundant:
            kept.append(b)
    out = [
        _Prepared(module, _divide_flat(module, b.flat, kept[:i] + kept[i + 1 :])[1])
        for i, b in enumerate(kept)
    ]
    # kept is in ascending term order with distinct leads
    out.reverse()
    return out


def module_equal(module: FreeModule, gens_a, gens_b) -> bool:
    """Equality of generated submodules via reduced-basis uniqueness."""
    return buchberger(module, gens_a).elements == buchberger(module, gens_b).elements


def _eliminate(module: FreeModule, tail_shifts: tuple[int, ...], ext_gens) -> list[Vector]:
    """Tails of the part of a submodule of `module` ⊕ F that lies in 0 ⊕ F.

    `ext_gens` generate the submodule; F has slot shifts `tail_shifts`.
    Under the block split eliminating `module`'s slots, the reduced basis
    elements whose leading block vanishes form a reduced basis of that part.
    """
    if module.block_split is not None:
        raise ValueError("nested block splits are not supported")
    if not ext_gens:
        return []
    rank = module.rank
    ext = FreeModule(module.nvars, module.shifts + tail_shifts, module.order, block_split=rank)
    gb = buchberger(ext, ext_gens)
    return [tuple(e[rank:]) for e in gb.elements if vec_is_zero(e[:rank])]


def syzygies(module: FreeModule, gens) -> tuple[FreeModule, list[Vector]]:
    """Generators of the syzygies of gens, in the free module whose slot i
    carries the degree of gens[i] (`vector_grading`).

    Eliminates the ambient block from the module generated by (g_i, e_i) in
    the ambient ⊕ that free module.  Homogeneous gens give the reduced basis
    of their syzygies, which are homogeneous.  Otherwise the gens are first
    homogenized to their degrees with a new last variable h of weight 1, and
    h is set to 1 in the result, a generating set: homogenizing to a fixed
    degree is linear, so every syzygy s lifts to the graded syzygy h^a * s^h.
    """
    gens = list(gens)
    gradings = [vector_grading(module, g) for g in gens]
    degrees = tuple(d for d, _ in gradings)
    syz_module = units = FreeModule(module.nvars, degrees, module.order)
    homogeneous = all(h for _, h in gradings)
    if not homogeneous:
        gens = [homogenize_vector(module, g, d) for g, d in zip(gens, degrees)]
        module, units = homogenized(module), homogenized(syz_module)
    ext_gens = [tuple(g) + units.unit_vector(i) for i, g in enumerate(gens)]
    syz = _eliminate(module, degrees, ext_gens)
    if not homogeneous:
        syz = [dehomogenize_vector(s) for s in syz]
    return syz_module, syz


def intersect(module: FreeModule, gens_a, gens_b) -> list[Vector]:
    """Reduced Groebner basis of the intersection of two submodules.

    Eliminates the first block of F ⊕ F from the submodule generated by
    (a, a) for a in A and (b, 0) for b in B: an element (0, w) has w in
    both A and B.  Output is homogeneous whenever both inputs are.
    """
    zero = module.zero_vector()
    ext_gens = [tuple(a) + tuple(a) for a in gens_a] + [tuple(b) + zero for b in gens_b]
    return _eliminate(module, module.shifts, ext_gens)


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact quotient p/d; raises if d does not divide p."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    module = ring_module(p.nvars, degree_order(p.nvars))
    quotients, rem = divide(module, (p,), [(d,)])
    if not rem[0].is_zero():
        raise ValueError("division is not exact")
    return quotients[0]


def polynomial_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd via the principal-ideal intersection <p> ∩ <q> = <lcm>."""
    if p.is_zero():
        return _monic(q)
    if q.is_zero():
        return _monic(p)
    if p.is_constant() or q.is_constant():
        return Polynomial.constant(1, p.nvars)
    module = ring_module(p.nvars, degree_order(p.nvars))
    inter = intersect(module, [(p,)], [(q,)])
    if len(inter) != 1:
        raise RuntimeError("intersection of principal ideals is not principal")
    lcm = inter[0][0]
    return _monic(exact_div(p * q, lcm))


def _monic(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    exps = max(p.terms, key=degree_order(p.nvars).key_parts)
    return p * (Fraction(1) / p.terms[exps])


def module_quotient(module: FreeModule, gens_n, gens_m) -> list[Polynomial]:
    """Ideal (N : M) = {s : s*M ⊆ N}, via N ∩ S*g for each generator g of M
    followed by ideal intersection."""
    gens_m = [g for g in gens_m if not vec_is_zero(g)]
    if not gens_m:
        return [Polynomial.constant(1, module.nvars)]
    ideal: list[Polynomial] | None = None
    ring = ring_module(module.nvars, module.order)
    for g in gens_m:
        inter = intersect(module, gens_n, [g])
        pivot = next(i for i, p in enumerate(g) if not p.is_zero())
        colon = []
        for w in inter:
            h = exact_div(w[pivot], g[pivot])
            if vec_poly_mul(g, h) != tuple(w):
                raise RuntimeError("intersection element is not a multiple of g")
            colon.append(h)
        if ideal is None:
            ideal = colon
        else:
            inter_ideal = intersect(ring, [(a,) for a in ideal], [(b,) for b in colon])
            ideal = [v[0] for v in inter_ideal]
    gb = buchberger(ring, [(p,) for p in ideal])
    return [v[0] for v in gb.elements]
