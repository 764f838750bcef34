"""Graded free resolutions by iterated syzygies, minimalization, Betti
numbers and the alternating degree/rank sums.

A resolution of a submodule M of a shifted free module is the chain
phi_0, phi_1, ..., phi_ell: phi_0 is the generator matrix into the ambient
and the columns of every later map generate the kernel of the previous one,
so the chain is exact by construction.  Shifts are the largest shifted
weighted degrees of the chosen generators: their degrees when they are
homogeneous, and their filtration bounds otherwise.  Nothing declares the
grading: a resolution is graded when the generators of M are homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .poly import Polynomial
from .groebner import (
    FreeModule,
    GroebnerBasis,
    Vector,
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
        out = []
        for col in other.columns:
            acc = None
            for coeff, image in zip(col, self.columns):
                part = tuple(coeff * p for p in image)
                acc = part if acc is None else tuple(a + b for a, b in zip(acc, part))
            out.append(acc if acc is not None else ())
        return tuple(out)

    def has_constant_entry(self) -> bool:
        return any(
            p.constant_coefficient() != 0 for col in self.columns for p in col
        )


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
    homogeneous).
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

    def is_minimal(self) -> bool:
        return not any(m.has_constant_entry() for m in self.chain[1:])


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
    """
    gens = [g for g in gens if not vec_is_zero(g)]
    degree_of = {
        id(g): vector_degree(module, g) if graded else vector_grading(module, g)[0]
        for g in gens
    }
    gens.sort(key=lambda g: (degree_of[id(g)], vec_sort_key(g)))
    gb = GroebnerBasis(module)
    kept = [g for g in gens if gb.add([g])]
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
    """Cancel trivial S(-d) -> S(-d) summands until no map phi_p, p >= 1,
    carries a unit (nonzero constant) entry.  The module is unchanged: every
    step is an invertible basis change followed by dropping a split exact
    pair."""
    if not res.graded:
        raise ValueError("minimalization requires a homogeneous resolution")
    cols = [[list(col) for col in m.columns] for m in res.chain]
    src_shifts = [list(m.source_shifts) for m in res.chain]

    def find_unit():
        for p in range(1, len(cols)):
            for j, col in enumerate(cols[p]):
                for i, entry in enumerate(col):
                    if entry.constant_coefficient() != 0:
                        return p, i, j, entry
        return None

    while (found := find_unit()) is not None:
        p, i0, j0, entry = found
        if not entry.is_constant():
            raise ValueError("non-homogeneous entry with a constant term")
        a = entry.constant_coefficient()
        block = cols[p]
        # column ops on this map clear row i0; the basis change of the
        # source module is mirrored on the rows of the next map
        coeffs = {}
        for j, col in enumerate(block):
            if j != j0 and not col[i0].is_zero():
                coeffs[j] = col[i0] * (1 / a)
        for j, c in coeffs.items():
            pivot_col = block[j0]
            block[j] = [x - c * y for x, y in zip(block[j], pivot_col)]
        if p + 1 < len(cols):
            for col in cols[p + 1]:
                bump = None
                for j, c in coeffs.items():
                    part = c * col[j]
                    bump = part if bump is None else bump + part
                if bump is not None:
                    col[j0] = col[j0] + bump
        # row ops clear column j0 (rows other than i0 only meet column j0,
        # since row i0 is now zero elsewhere); the basis change of the
        # target module is mirrored on the columns of the previous map
        dcoeffs = {}
        for i in range(len(block[j0])):
            if i != i0 and not block[j0][i].is_zero():
                dcoeffs[i] = block[j0][i] * (1 / a)
        block[j0] = [
            entry if i == i0 else Polynomial.zero(entry.nvars)
            for i in range(len(block[j0]))
        ]
        prev = cols[p - 1]
        for i, d in dcoeffs.items():
            prev[i0] = [x + d * y for x, y in zip(prev[i0], prev[i])]
        # drop the split pair: source basis j0, target basis i0
        if p + 1 < len(cols):
            for col in cols[p + 1]:
                if not col[j0].is_zero():
                    raise RuntimeError("pivot row of the next map did not vanish")
            cols[p + 1] = [col[:j0] + col[j0 + 1 :] for col in cols[p + 1]]
        cols[p] = [col[:i0] + col[i0 + 1 :] for j, col in enumerate(block) if j != j0]
        del src_shifts[p][j0]
        if any(not x.is_zero() for x in prev[i0]):
            raise RuntimeError("pivot column of the previous map did not vanish")
        del prev[i0]
        del src_shifts[p - 1][i0]
        while len(cols) > 1 and not cols[-1]:
            cols.pop()
            src_shifts.pop()

    chain = tuple(
        ModuleMap(tuple(tuple(col) for col in c), tuple(s))
        for c, s in zip(cols, src_shifts)
    )
    return Resolution(chain, res.ambient)


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
    chain = res.chain
    for upper, lower in zip(chain, chain[1:]):
        for col in upper.compose(lower):
            if not vec_is_zero(col):
                return False
    current = res.ambient
    for idx, m in enumerate(chain):
        syz_mod, syz = syzygies(current, list(m.columns))
        expected = list(chain[idx + 1].columns) if idx + 1 < len(chain) else []
        if not module_equal(syz_mod, syz, expected):
            return False
        current = FreeModule(current.nvars, m.source_shifts, current.order)
    return True
