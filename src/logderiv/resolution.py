"""Graded free resolutions by iterated syzygies, minimalization, Betti
numbers and the alternating degree/rank sums.

A resolution of a submodule M of a shifted free module is the chain
phi_0, phi_1, ..., phi_ell: phi_0 is the generator matrix into the ambient
and the columns of every later map generate the kernel of the previous one,
so the chain is exact by construction.  Shifts are the largest shifted
weighted degrees of the chosen generators: their degrees when they are
homogeneous, and their filtration bounds otherwise.  Nothing declares the
grading: a resolution is graded when the generators of M are homogeneous.

`minimize` splits off unit pivots.  The chain conditions are stated here
once: `Resolution.is_complex`, `certify_exact` on top of it, and the complex
condition at each pivot `minimize` splits.

A map keeps its columns as Rows (`groebner.Row`, integers over one
denominator): the resolution runs on them from `syzygies` to the Betti
table, and composites and Schur complements are `groebner.combination`.
`ModuleMap.columns` and `entry` are the Vector views, made on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

from .poly import Polynomial
from .groebner import (
    FreeModule,
    GroebnerBasis,
    Row,
    Vector,
    as_row,
    buchberger,
    combination,
    homogenize_vector,
    homogenized,
    module_equal,
    syzygies,
    vector_grading,
)


@dataclass(frozen=True, init=False)
class ModuleMap:
    """Map from a shifted free module; its columns are the images of the
    source basis in target coordinates, kept as `rows` and built from Rows
    or Vectors.  In a resolution chain[p] holds the shifts of F_p, its
    source, and only those: the shifts of its target F_{p-1} live in
    chain[p - 1] (in the ambient for p = 0), where `Resolution.target_shifts`
    reads them.

    A map built by `free_resolution` from inhomogeneous columns also keeps
    the reduced basis of its homogenized image, which the `syzygies` call
    that built it computed (`homogenized_image`).  It is no field: a map
    made with other columns or shifts, by the constructor or by
    `dataclasses.replace`, carries none."""

    rows: tuple[Row, ...]
    source_shifts: tuple[int, ...]

    def __init__(self, rows, source_shifts: tuple[int, ...], _image=None):
        object.__setattr__(self, "rows", tuple(as_row(col) for col in rows))
        object.__setattr__(self, "source_shifts", source_shifts)
        # (target, basis) from `free_resolution`, or None
        object.__setattr__(self, "_image", _image)

    @cached_property
    def columns(self) -> tuple[Vector, ...]:
        return tuple(col.vector() for col in self.rows)

    @property
    def source_rank(self) -> int:
        return len(self.source_shifts)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.columns[j][i]

    def compose(self, other: "ModuleMap") -> tuple[Row, ...]:
        """Columns of the composite map (other feeds into self), as Rows."""
        return tuple(combination(col, self.rows) for col in other.rows)

    def homogenized(self, target: FreeModule) -> "ModuleMap":
        """The map into `homogenized(target)`, each column homogenized to
        its source shift (`homogenize_vector`); target carries the shifts of
        the map's target."""
        shifts = self.source_shifts
        return ModuleMap(
            tuple(homogenize_vector(target, col, d) for col, d in zip(self.rows, shifts)), shifts
        )

    def homogenized_image(self, target: FreeModule) -> tuple[Row, ...]:
        """The reduced basis of the image of `homogenized(target)`: the one
        kept from `syzygies` when `free_resolution` built the map for this
        target, otherwise `buchberger` on the homogenized columns."""
        if self._image is not None and self._image[0] == target:
            return self._image[1]
        return buchberger(homogenized(target), self.homogenized(target).rows).rows


@dataclass(frozen=True)
class Resolution:
    """0 <- M <- F_0 <- F_1 <- ... <- F_ell <- 0 for a submodule M of ambient.

    chain[0] is phi_0, the generators of M as columns in ambient
    coordinates; chain[p] is phi_p: F_p -> F_{p-1}.  The shifts of F_p live
    once, in chain[p].source_shifts; `target_shifts(p)` reads those of the
    target of phi_p from there (from the ambient for p = 0).  In a graded
    resolution entry (i, j) of phi_p is zero or of degree
    shifts(p)[j] - target_shifts(p)[i].  The grading (weights) is the
    ambient's, and the resolution is graded when every column of phi_0 is
    homogeneous (a zero column, as `pad_with_trivial_pair` adds, counts as
    homogeneous).  It is minimal when no phi_p with p >= 1 has a unit entry
    (`first_unit`, the one scan `minimize` pivots on too).
    """

    chain: tuple[ModuleMap, ...]
    ambient: FreeModule

    @property
    def weights(self) -> tuple[int, ...]:
        return self.ambient.order.weights

    @cached_property
    def graded(self) -> bool:
        return all(vector_grading(self.ambient, col)[1] for col in self.chain[0].rows)

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    def shifts(self, p: int) -> tuple[int, ...]:
        return self.chain[p].source_shifts

    def target_shifts(self, p: int) -> tuple[int, ...]:
        return self.ambient.shifts if p == 0 else self.shifts(p - 1)

    def all_shifts(self) -> list[tuple[int, ...]]:
        return [self.shifts(p) for p in range(self.length + 1)]

    def ranks(self) -> list[int]:
        return [len(s) for s in self.all_shifts()]

    def first_unit(self) -> tuple[int, int, int] | None:
        """(p, i, j) of the first unit (nonzero constant) entry phi_p[i][j]
        with p >= 1, scanning maps, then columns, then rows; None when there
        is none, that is, when the resolution is minimal."""
        for p in range(1, len(self.chain)):
            for j, col in enumerate(self.chain[p].rows):
                units = [i for i, exps in col.terms if not any(exps)]
                if units:
                    return p, min(units), j
        return None

    def is_minimal(self) -> bool:
        return self.first_unit() is None

    def is_complex(self) -> bool:
        """Every composite phi_{p-1} phi_p vanishes."""
        return all(
            not col.terms
            for upper, lower in zip(self.chain, self.chain[1:])
            for col in upper.compose(lower)
        )


def minimal_generators(module: FreeModule, gens, graded: bool = False) -> tuple:
    """Greedy irredundant generating set, processed by ascending
    degree bound (`vector_grading`) and then by the generators' terms and
    coefficients; `graded` requires homogeneous generators.

    For homogeneous generators ascending-degree greedy produces a minimal
    generating set (an element dependent on the kept ones modulo lower
    degrees would itself have been dropped), which bounds the length of the
    resolution.  Returns the kept generators, as they were given, and
    their shifts.  A kept Row keeps its grading in module (`Row.memo`), so
    a later caller that grades it there, `syzygies` or the basis here
    included, reads it back.

    One basis of the kept generators grows as they are kept
    (`GroebnerBasis.grow`).  When every generator is homogeneous and the
    order compares degrees first (no block split), a candidate of degree d
    is tested against the basis closed up to degree d only: the pairs of
    higher lcm wait for later candidates, and those above the last one are
    never reduced.  Otherwise the basis is closed completely before each
    candidate, since an S-vector of inhomogeneous rows can reduce to an
    element of lower degree, and the truncated basis could miss it.
    """
    gens = list(gens)
    rows = [as_row(g) for g in gens]
    live = [k for k, g in enumerate(rows) if g.terms]
    gradings = {k: vector_grading(module, rows[k]) for k in live}
    homogeneous = all(h for _, h in gradings.values())
    if graded and not homogeneous:
        raise ValueError("only a nonzero homogeneous element has a degree")
    # one scale for every coefficient, so that ints compare as the rationals do
    scale = reduce(math.lcm, (rows[k].den for k in live), 1)
    live.sort(key=lambda k: (gradings[k][0], _sort_key(rows[k], scale)))
    truncated = module.block_split is None and homogeneous
    gb = GroebnerBasis(module)
    kept = [
        k for k in live
        if gb.grow(rows[k], gradings[k][0] if truncated else None)
    ]
    return [gens[k] for k in kept], [gradings[k][0] for k in kept]


def _sort_key(row: Row, scale: int) -> tuple:
    """Per slot, the (exponents, coefficient * scale) pairs in ascending
    order: a total order on elements whose denominators divide scale."""
    slots: list[list] = [[] for _ in range(row.rank)]
    factor = scale // row.den
    for (slot, exps), c in row.terms.items():
        slots[slot].append((exps, c * factor))
    return tuple(tuple(sorted(terms)) for terms in slots)


def free_resolution(module: FreeModule, gens) -> Resolution:
    """Resolution of the submodule generated by gens.

    phi_0 keeps the given nonzero generators verbatim (one column each);
    every later map generates the syzygies of the previous one, pruned to an
    irredundant (graded: minimal) generating set, which guarantees
    termination within the number of variables.  The shifts of F_p are the
    degrees `syzygies` reads off the columns of phi_p.  Homogeneous columns
    that form a Groebner basis, as D(f)'s reduced basis does at step 0,
    have their syzygies read off their S-pair lifts, with no block split
    (`groebner._schreyer_lifts`); the matrices then differ from a block
    split's, never the shifts of a graded resolution.  Where the columns of
    phi_p are inhomogeneous, `syzygies` homogenized them and is asked for
    its image, and phi_p keeps the reduced basis of the homogenized image
    (`ModuleMap.homogenized_image`).  Each column is graded once, in the
    free module it lies in: the columns of phi_0 by the homogeneity check
    here (or before it, by the caller), each later one by
    `minimal_generators`.  That check, `syzygies` and `Resolution.graded`
    read those gradings back off the Rows (`Row.memo`).
    """
    columns = tuple(r for r in map(as_row, gens) if r.terms)
    chain: list[ModuleMap] = []
    ambient = module
    while True:
        if all(vector_grading(ambient, c)[1] for c in columns):
            (syz_module, syz), kept = syzygies(ambient, columns), None
        else:
            syz_module, syz, image = syzygies(ambient, columns, _with_image=True)
            kept = (ambient, image)
        chain.append(ModuleMap(columns, syz_module.shifts, kept))
        columns, _ = minimal_generators(syz_module, syz)
        if not columns:
            return Resolution(tuple(chain), module)
        if len(chain) > module.nvars + 1:
            raise RuntimeError("resolution exceeded the expected length bound")
        ambient = syz_module


def alternating_degree_sum(res: Resolution) -> int:
    total = 0
    for p in range(res.length + 1):
        s = sum(res.shifts(p))
        total += s if p % 2 == 0 else -s
    return total


def alternating_rank_sum(res: Resolution) -> int:
    total = 0
    for p in range(res.length + 1):
        r = len(res.shifts(p))
        total += r if p % 2 == 0 else -r
    return total


@dataclass
class BettiTable:
    """Graded Betti numbers b_{j,p}, keyed by (j, p) with shift d = j + p."""

    entries: dict[tuple[int, int], int]

    def weighted_alternating_sum(self) -> int:
        total = 0
        for (j, p), b in self.entries.items():
            term = (j + p) * b
            total += term if p % 2 == 0 else -term
        return total

    def to_triples(self) -> list[dict]:
        return [
            {"p": p, "j": j, "b": b}
            for (j, p), b in sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]

    def render(self) -> str:
        if not self.entries:
            return "(zero module)"
        ps = sorted({p for (_, p) in self.entries})
        js = sorted({j for (j, _) in self.entries})
        width = max(len(str(b)) for b in self.entries.values()) + 2
        head = "j\\p".rjust(5) + "".join(str(p).rjust(width) for p in ps)
        lines = [head]
        for j in js:
            row = f"{j}:".rjust(5)
            for p in ps:
                b = self.entries.get((j, p))
                row += (str(b) if b else ".").rjust(width)
            lines.append(row)
        return "\n".join(lines)


def betti_numbers(res: Resolution) -> BettiTable:
    """Reads b_{j,p} off a minimal resolution: b_{j,p} counts shifts
    d_i^p = j + p."""
    if not res.is_minimal():
        raise ValueError("betti numbers require a minimal resolution")
    entries: dict[tuple[int, int], int] = {}
    for p in range(res.length + 1):
        for d in res.shifts(p):
            key = (d - p, p)
            entries[key] = entries.get(key, 0) + 1
    return BettiTable(entries)


def minimize(res: Resolution) -> Resolution:
    """Split off trivial S(-d) -> S(-d) summands until no map phi_p, p >= 1,
    carries a unit (nonzero constant) entry; the module is unchanged.

    At a unit a = phi_p[i0][j0], each other column of phi_p becomes its Schur
    complement col - (col[i0] / a) * pivot with row i0 dropped; phi_{p-1}
    loses column i0, phi_{p+1} row j0, and both shifts go.  The split is
    exact when the chain is a complex at the pivot, which is checked there.
    """
    if not res.graded:
        raise ValueError("minimalization requires a homogeneous resolution")
    while (unit := res.first_unit()) is not None:
        res = _split_unit(res, *unit)
    return res


def _split_unit(res: Resolution, p: int, i0: int, j0: int) -> Resolution:
    chain = list(res.chain)
    phi = chain[p]
    pivot = phi.rows[j0]
    if any(slot == i0 and any(exps) for slot, exps in pivot.terms):
        raise ValueError("non-homogeneous entry with a constant term")
    if combination(pivot, chain[p - 1].rows).terms:
        raise RuntimeError("pivot column of the previous map did not vanish")
    pivot_row = [_slot(col, i0) for col in phi.rows]
    if p + 1 < len(chain) and not all(
        not combination(col, pivot_row).terms for col in chain[p + 1].rows
    ):
        raise RuntimeError("pivot row of the next map did not vanish")
    one = (0,) * pivot.nvars
    a = pivot.terms[(i0, one)]

    def complement(col: Row) -> Row:
        # col - (col[i0] / entry) * pivot, entry = a / pivot.den: the
        # coefficients 1 and -col[i0] / entry as integers over a * col.den
        top = {(1, exps): -c * pivot.den for (slot, exps), c in col.terms.items() if slot == i0}
        if top:
            coeffs = Row.lowest({(0, one): a * col.den} | top, a * col.den, 2, col.nvars)
            col = combination(coeffs, (col, pivot))
        return _drop_slot(col, i0)

    below = chain[p - 1]
    chain[p - 1] = ModuleMap(_drop(below.rows, i0), _drop(below.source_shifts, i0))
    chain[p] = ModuleMap(
        tuple(complement(col) for j, col in enumerate(phi.rows) if j != j0),
        _drop(phi.source_shifts, j0),
    )
    if p + 1 < len(chain):
        above = chain[p + 1]
        chain[p + 1] = ModuleMap(
            tuple(_drop_slot(col, j0) for col in above.rows), above.source_shifts
        )
    while len(chain) > 1 and not chain[-1].rows:
        chain.pop()
    return Resolution(tuple(chain), res.ambient)


def _drop(items: tuple, k: int) -> tuple:
    return items[:k] + items[k + 1 :]


def _slot(row: Row, k: int) -> Row:
    """Slot k of row, as an element of rank 1."""
    terms = {(0, exps): c for (slot, exps), c in row.terms.items() if slot == k}
    return Row.lowest(terms, row.den, 1, row.nvars)


def _drop_slot(row: Row, k: int) -> Row:
    """row without slot k, the slots above it moved down by one."""
    terms = {(slot - (slot > k), exps): c for (slot, exps), c in row.terms.items() if slot != k}
    return Row.lowest(terms, row.den, row.rank - 1, row.nvars)


def _widened(row: Row) -> Row:
    """row with a zero slot appended."""
    return Row(row.terms, row.den, row.rank + 1, row.nvars)


def pad_with_trivial_pair(res: Resolution, p: int, d: int) -> Resolution:
    """Insert an identity summand S(-d) -> S(-d) between steps p and p-1
    (1 <= p <= length + 1), producing a non-minimal resolution of the same
    module with unchanged alternating sums."""
    if not 1 <= p <= res.length + 1:
        raise ValueError("padding position out of range")
    nvars = res.ambient.nvars
    chain = list(res.chain)
    # F_{p-1} gains a basis element S(-d) that phi_{p-1} sends to zero
    below = chain[p - 1]
    chain[p - 1] = ModuleMap(
        below.rows + (Row({}, 1, len(res.target_shifts(p - 1)), nvars),),
        below.source_shifts + (d,),
    )
    # F_p gains S(-d) mapping identically onto it, a new map when p = length + 1
    old = chain[p] if p < len(chain) else ModuleMap((), ())
    rank = len(res.shifts(p - 1))
    ident_col = Row.unit(rank, rank + 1, nvars)
    chain[p : p + 1] = [
        ModuleMap(
            tuple(_widened(col) for col in old.rows) + (ident_col,),
            old.source_shifts + (d,),
        )
    ]
    if p + 1 < len(chain):
        above = chain[p + 1]
        chain[p + 1] = ModuleMap(
            tuple(_widened(col) for col in above.rows), above.source_shifts
        )
    return Resolution(tuple(chain), res.ambient)


def certify_exact(res: Resolution) -> bool:
    """Consecutive composites vanish and each map's columns generate the
    full syzygy module of the previous step's columns."""
    if not res.is_complex():
        return False
    chain = res.chain
    current = res.ambient
    for idx, m in enumerate(chain):
        syz_mod, syz = syzygies(current, list(m.rows))
        expected = list(chain[idx + 1].rows) if idx + 1 < len(chain) else []
        if not module_equal(syz_mod, syz, expected):
            return False
        current = FreeModule(current.nvars, m.source_shifts, current.order)
    return True
