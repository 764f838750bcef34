"""Graded free resolutions by iterated syzygies, minimalization, Betti
numbers and the alternating degree/rank sums.

A resolution of a submodule M of a shifted free module records phi_0 (the
generator matrix into the ambient) followed by the chain of syzygy maps; a
resolution of a quotient F_0 / K starts directly with the relation matrix.
Columns of every map are the generators of the kernel of the previous one,
so the chain is exact by construction.  Shifts are the degrees of the chosen
generators (graded case) or their componentwise max total degrees (the
filtration bounds of the non-graded pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Polynomial
from .groebner import (
    FreeModule,
    Vector,
    buchberger,
    module_equal,
    normal_form,
    syzygies,
    vec_is_zero,
    vec_sort_key,
    vector_degree,
    vector_degree_bound,
)


@dataclass(frozen=True)
class ModuleMap:
    """Map between shifted free modules; columns are images of the source
    basis expressed in target coordinates.  When homogeneous, the entry
    (i, j) is zero or has degree source_shifts[j] - target_shifts[i]."""

    columns: tuple[Vector, ...]
    source_shifts: tuple[int, ...]
    target_shifts: tuple[int, ...]
    homogeneous: bool

    @property
    def source_rank(self) -> int:
        return len(self.source_shifts)

    @property
    def target_rank(self) -> int:
        return len(self.target_shifts)

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
    """0 <- M <- F_0 <- F_1 <- ... <- F_ell <- 0.

    generator_map is phi_0 for submodule targets (None for quotient
    presentations); maps holds phi_1..phi_ell.  weights is the grading used
    for degrees and for the Hilbert series denominator.
    """

    f0_shifts: tuple[int, ...]
    generator_map: ModuleMap | None
    maps: tuple[ModuleMap, ...]
    weights: tuple[int, ...]
    graded: bool
    ambient: FreeModule | None = None

    @property
    def length(self) -> int:
        return len(self.maps)

    def shifts(self, p: int) -> tuple[int, ...]:
        if p == 0:
            return self.f0_shifts
        return self.maps[p - 1].source_shifts

    def all_shifts(self) -> list[tuple[int, ...]]:
        return [self.shifts(p) for p in range(self.length + 1)]

    def ranks(self) -> list[int]:
        return [len(s) for s in self.all_shifts()]

    def is_minimal(self) -> bool:
        return not any(m.has_constant_entry() for m in self.maps)


def minimal_generators(
    module: FreeModule, gens: list[Vector], graded: bool
) -> tuple[list[Vector], list[int]]:
    """Greedy irredundant generating set, processed by ascending degree.

    In the graded case ascending-degree greedy produces a minimal generating
    set (an element dependent on the kept ones modulo lower degrees would
    itself have been dropped), which bounds the length of the resolution.
    Returns the kept vectors and their shifts.
    """
    gens = [g for g in gens if not vec_is_zero(g)]
    if graded:
        degree_of = {id(g): vector_degree(module, g) for g in gens}
    else:
        degree_of = {id(g): vector_degree_bound(module, g) for g in gens}
    gens.sort(key=lambda g: (degree_of[id(g)], vec_sort_key(g)))
    kept: list[Vector] = []
    gb = None
    for g in gens:
        if gb is not None and vec_is_zero(normal_form(module, g, gb)):
            continue
        kept.append(g)
        gb = buchberger(module, kept)
    return kept, [degree_of[id(g)] for g in kept]


def free_resolution(module: FreeModule, gens, graded: bool = True) -> Resolution:
    """Resolution of the submodule generated by gens.

    Step 0 keeps the given generators verbatim (one column each); every
    later step generates the syzygies of the previous one, pruned to an
    irredundant (graded: minimal) generating set, which guarantees
    termination within the number of variables.
    """
    gens = [tuple(g) for g in gens if not vec_is_zero(g)]
    if graded:
        f0_shifts = tuple(vector_degree(module, g) for g in gens)
    else:
        f0_shifts = tuple(vector_degree_bound(module, g) for g in gens)
    generator_map = ModuleMap(tuple(gens), f0_shifts, module.shifts, graded)
    maps: list[ModuleMap] = []
    ambient = module
    current_gens = gens
    current_shifts = f0_shifts
    while current_gens:
        syz_module, syz = syzygies(ambient, current_gens, degrees=current_shifts)
        syz = [s for s in syz if not vec_is_zero(s)]
        if not syz:
            break
        syz, shifts = minimal_generators(syz_module, syz, graded)
        maps.append(ModuleMap(tuple(syz), tuple(shifts), current_shifts, graded))
        if len(maps) > module.nvars + 1:
            raise RuntimeError("resolution exceeded the expected length bound")
        ambient = syz_module
        current_gens = syz
        current_shifts = tuple(shifts)
    return Resolution(
        f0_shifts, generator_map, tuple(maps), tuple(module.order.weights), graded, module
    )


def presentation_resolution(
    f0_module: FreeModule, relations, graded: bool = True
) -> Resolution:
    """Resolution of the quotient F_0 / <relations>."""
    relations = [tuple(r) for r in relations if not vec_is_zero(r)]
    weights = tuple(f0_module.order.weights)
    if not relations:
        return Resolution(f0_module.shifts, None, (), weights, graded, None)
    sub = free_resolution(f0_module, relations, graded=graded)
    first = ModuleMap(
        sub.generator_map.columns, sub.f0_shifts, f0_module.shifts, graded
    )
    return Resolution(
        f0_module.shifts, None, (first,) + sub.maps, weights, graded, None
    )


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

    def total(self, p: int) -> int:
        return sum(b for (j, q), b in self.entries.items() if q == p)

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


def _delete_index(items: tuple, idx: int) -> tuple:
    return items[:idx] + items[idx + 1 :]


def _vec_delete(vec: Vector, idx: int) -> Vector:
    return vec[:idx] + vec[idx + 1 :]


def minimize(res: Resolution) -> Resolution:
    """Cancel trivial S(-d) -> S(-d) summands until no map carries a unit
    (nonzero constant) entry.  The target module is unchanged: every step is
    an invertible basis change followed by dropping a split exact pair."""
    if not res.graded:
        raise ValueError("minimalization requires a homogeneous resolution")
    cols = [list(list(col) for col in m.columns) for m in res.maps]
    src_shifts = [list(m.source_shifts) for m in res.maps]
    gen_cols = (
        [list(col) for col in res.generator_map.columns]
        if res.generator_map is not None
        else None
    )
    f0_shifts = list(res.f0_shifts)

    def target_shifts(p: int) -> list[int]:
        return f0_shifts if p == 0 else src_shifts[p - 1]

    def find_unit():
        for p in range(len(cols)):
            for j, col in enumerate(cols[p]):
                for i, entry in enumerate(col):
                    c = entry.constant_coefficient()
                    if c != 0:
                        return p, i, j, entry, c
        return None

    while True:
        found = find_unit()
        if found is None:
            break
        p, i0, j0, entry, _ = found
        a = entry.constant_coefficient()
        if not entry.is_constant():
            raise ValueError("non-homogeneous entry with a constant term")
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
        prev = cols[p - 1] if p >= 1 else gen_cols
        if prev is not None:
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
        if p == 0:
            if gen_cols is not None:
                if any(not x.is_zero() for x in gen_cols[i0]):
                    raise RuntimeError("pivot column of the generator map did not vanish")
                del gen_cols[i0]
            del f0_shifts[i0]
        else:
            if any(not x.is_zero() for x in cols[p - 1][i0]):
                raise RuntimeError("pivot column of the previous map did not vanish")
            del cols[p - 1][i0]
            del src_shifts[p - 1][i0]
        while cols and not cols[-1]:
            cols.pop()
            src_shifts.pop()

    maps = []
    for p in range(len(cols)):
        maps.append(
            ModuleMap(
                tuple(tuple(col) for col in cols[p]),
                tuple(src_shifts[p]),
                tuple(target_shifts(p)),
                True,
            )
        )
    generator_map = None
    if gen_cols is not None:
        generator_map = ModuleMap(
            tuple(tuple(col) for col in gen_cols),
            tuple(f0_shifts),
            res.generator_map.target_shifts,
            True,
        )
    return Resolution(
        tuple(f0_shifts), generator_map, tuple(maps), res.weights, True, res.ambient
    )


def pad_with_trivial_pair(res: Resolution, p: int, d: int) -> Resolution:
    """Insert an identity summand S(-d) -> S(-d) between steps p and p-1
    (1 <= p <= length + 1), producing a non-minimal resolution of the same
    module with unchanged alternating sums."""
    if not 1 <= p <= res.length + 1:
        raise ValueError("padding position out of range")
    nvars = res.ambient.nvars if res.ambient is not None else len(res.weights)
    zero = Polynomial.zero(nvars)
    one = Polynomial.constant(1, nvars)

    maps = list(res.maps)
    f0_shifts = res.f0_shifts
    generator_map = res.generator_map

    def widen_target(m: ModuleMap) -> ModuleMap:
        return ModuleMap(
            tuple(col + (zero,) for col in m.columns),
            m.source_shifts,
            m.target_shifts + (d,),
            m.homogeneous,
        )

    def widen_source(m: ModuleMap) -> ModuleMap:
        new_col = tuple(zero for _ in range(m.target_rank))
        return ModuleMap(
            m.columns + (new_col,),
            m.source_shifts + (d,),
            m.target_shifts,
            m.homogeneous,
        )

    # identity block at step p
    if p <= res.length:
        old = maps[p - 1]
        wide = widen_target(old)
        ident_col = tuple(zero for _ in range(old.target_rank)) + (one,)
        maps[p - 1] = ModuleMap(
            wide.columns + (ident_col,),
            wide.source_shifts + (d,),
            wide.target_shifts,
            old.homogeneous,
        )
    else:
        target = res.shifts(p - 1)
        ident_col = tuple(zero for _ in range(len(target))) + (one,)
        maps.append(
            ModuleMap((ident_col,), (d,), target + (d,), res.graded)
        )
    # widen the neighbours
    if p - 1 == 0:
        f0_shifts = res.f0_shifts + (d,)
        if generator_map is not None:
            generator_map = widen_source(generator_map)
    else:
        maps[p - 2] = widen_source(maps[p - 2])
    if p + 1 <= res.length:
        maps[p] = widen_target(maps[p])
    return Resolution(
        f0_shifts, generator_map, tuple(maps), res.weights, res.graded, res.ambient
    )


def certify_exact(res: Resolution) -> bool:
    """Consecutive composites vanish and each map's columns generate the
    full syzygy module of the previous step's columns."""
    from .poly import MonomialOrder

    if res.generator_map is not None:
        current = res.ambient
        chain = [res.generator_map] + list(res.maps)
    else:
        order = MonomialOrder(res.weights)
        current = FreeModule(len(res.weights), res.f0_shifts, order)
        chain = list(res.maps)
    for upper, lower in zip(chain, chain[1:]):
        for col in upper.compose(lower):
            if not vec_is_zero(col):
                return False
    for idx, m in enumerate(chain):
        syz_mod, syz = syzygies(current, list(m.columns), degrees=m.source_shifts)
        nxt = chain[idx + 1] if idx + 1 < len(chain) else None
        expected = list(nxt.columns) if nxt is not None else []
        if not module_equal(syz_mod, syz, expected):
            return False
        current = FreeModule(current.nvars, m.source_shifts, current.order)
    return True
