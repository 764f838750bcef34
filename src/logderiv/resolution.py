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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .poly import Polynomial
from .groebner import (
    FreeModule,
    GroebnerBasis,
    Vector,
    combination,
    module_equal,
    syzygies,
    vec_is_zero,
    vec_sort_key,
    vector_degree,
    vector_grading,
)


@dataclass(frozen=True)
class ModuleMap:
    """Map from a shifted free module; columns are images of the source
    basis expressed in target coordinates.  In a resolution chain[p] holds
    the shifts of F_p, its source, and only those: the shifts of its target
    F_{p-1} live in chain[p - 1] (in the ambient for p = 0), where
    `Resolution.target_shifts` reads them."""

    columns: tuple[Vector, ...]
    source_shifts: tuple[int, ...]

    @property
    def source_rank(self) -> int:
        return len(self.source_shifts)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.columns[j][i]

    def compose(self, other: "ModuleMap") -> tuple[Vector, ...]:
        """Columns of the composite map (other feeds into self)."""
        return tuple(combination(col, self.columns) for col in other.columns)


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
        return all(vector_grading(self.ambient, col)[1] for col in self.chain[0].columns)

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
            for j, col in enumerate(self.chain[p].columns):
                for i, entry in enumerate(col):
                    if entry.constant_coefficient() != 0:
                        return p, i, j
        return None

    def is_minimal(self) -> bool:
        return self.first_unit() is None

    def is_complex(self) -> bool:
        """Every composite phi_{p-1} phi_p vanishes."""
        return all(
            vec_is_zero(col)
            for upper, lower in zip(self.chain, self.chain[1:])
            for col in upper.compose(lower)
        )


def minimal_generators(
    module: FreeModule, gens: list[Vector], graded: bool = False
) -> tuple[list[Vector], list[int]]:
    """Greedy irredundant generating set, processed by ascending
    degree bound (`vector_grading`); `graded` requires homogeneous
    generators.

    For homogeneous generators ascending-degree greedy produces a minimal
    generating set (an element dependent on the kept ones modulo lower
    degrees would itself have been dropped), which bounds the length of the
    resolution.  Returns the kept vectors and their shifts.

    One basis of the kept generators grows as they are kept
    (`GroebnerBasis.grow`).  When every generator is homogeneous and the
    order compares degrees first (no block split), a candidate of degree d
    is tested against the basis closed up to degree d only: the pairs of
    higher lcm wait for later candidates, and those above the last one are
    never reduced.  Otherwise the basis is closed completely before each
    candidate, since an S-vector of inhomogeneous rows can reduce to an
    element of lower degree, and the truncated basis could miss it.
    """
    gens = [g for g in gens if not vec_is_zero(g)]
    degree_of = {
        id(g): vector_degree(module, g) if graded else vector_grading(module, g)[0]
        for g in gens
    }
    gens.sort(key=lambda g: (degree_of[id(g)], vec_sort_key(g)))
    truncated = module.block_split is None and (
        graded or all(vector_grading(module, g)[1] for g in gens)
    )
    gb = GroebnerBasis(module)
    kept = [g for g in gens if gb.grow(g, degree_of[id(g)] if truncated else None)]
    return kept, [degree_of[id(g)] for g in kept]


def free_resolution(module: FreeModule, gens) -> Resolution:
    """Resolution of the submodule generated by gens.

    phi_0 keeps the given nonzero generators verbatim (one column each);
    every later map generates the syzygies of the previous one, pruned to an
    irredundant (graded: minimal) generating set, which guarantees
    termination within the number of variables.  The shifts of F_p are the
    degrees `syzygies` reads off the columns of phi_p.
    """
    columns = tuple(tuple(g) for g in gens if not vec_is_zero(g))
    chain: list[ModuleMap] = []
    ambient = module
    while True:
        syz_module, syz = syzygies(ambient, columns)
        chain.append(ModuleMap(columns, syz_module.shifts))
        columns = tuple(minimal_generators(syz_module, syz)[0])
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
    pivot = phi.columns[j0]
    if not pivot[i0].is_constant():
        raise ValueError("non-homogeneous entry with a constant term")
    if not vec_is_zero(combination(pivot, chain[p - 1].columns)):
        raise RuntimeError("pivot column of the previous map did not vanish")
    pivot_row = [(col[i0],) for col in phi.columns]
    if p + 1 < len(chain) and not all(
        vec_is_zero(combination(col, pivot_row)) for col in chain[p + 1].columns
    ):
        raise RuntimeError("pivot row of the next map did not vanish")
    inverse = 1 / pivot[i0].constant_coefficient()

    def complement(col: Vector) -> Vector:
        if not col[i0].is_zero():
            c = col[i0] * inverse
            col = tuple(x - c * y for x, y in zip(col, pivot))
        return _drop(col, i0)

    below = chain[p - 1]
    chain[p - 1] = ModuleMap(_drop(below.columns, i0), _drop(below.source_shifts, i0))
    chain[p] = ModuleMap(
        tuple(complement(col) for j, col in enumerate(phi.columns) if j != j0),
        _drop(phi.source_shifts, j0),
    )
    if p + 1 < len(chain):
        above = chain[p + 1]
        chain[p + 1] = ModuleMap(
            tuple(_drop(col, j0) for col in above.columns), above.source_shifts
        )
    while len(chain) > 1 and not chain[-1].columns:
        chain.pop()
    return Resolution(tuple(chain), res.ambient)


def _drop(items: tuple, k: int) -> tuple:
    return items[:k] + items[k + 1 :]


def pad_with_trivial_pair(res: Resolution, p: int, d: int) -> Resolution:
    """Insert an identity summand S(-d) -> S(-d) between steps p and p-1
    (1 <= p <= length + 1), producing a non-minimal resolution of the same
    module with unchanged alternating sums."""
    if not 1 <= p <= res.length + 1:
        raise ValueError("padding position out of range")
    nvars = res.ambient.nvars
    zero = Polynomial.zero(nvars)
    one = Polynomial.constant(1, nvars)
    chain = list(res.chain)
    # F_{p-1} gains a basis element S(-d) that phi_{p-1} sends to zero
    below = chain[p - 1]
    chain[p - 1] = ModuleMap(
        below.columns + ((zero,) * len(res.target_shifts(p - 1)),),
        below.source_shifts + (d,),
    )
    # F_p gains S(-d) mapping identically onto it, a new map when p = length + 1
    old = chain[p] if p < len(chain) else ModuleMap((), ())
    ident_col = (zero,) * len(res.shifts(p - 1)) + (one,)
    chain[p : p + 1] = [
        ModuleMap(
            tuple(col + (zero,) for col in old.columns) + (ident_col,),
            old.source_shifts + (d,),
        )
    ]
    if p + 1 < len(chain):
        above = chain[p + 1]
        chain[p + 1] = ModuleMap(
            tuple(col + (zero,) for col in above.columns), above.source_shifts
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
        syz_mod, syz = syzygies(current, list(m.columns))
        expected = list(chain[idx + 1].columns) if idx + 1 < len(chain) else []
        if not module_equal(syz_mod, syz, expected):
            return False
        current = FreeModule(current.nvars, m.source_shifts, current.order)
    return True
