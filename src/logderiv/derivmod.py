"""Graded derivation modules and generalized logarithmic derivations.

A derivation sum(a_i * d_i) is represented by its coefficient vector, an
element of the rank-n free module whose slot i carries the shift v_i: under
the weighting u on variables and v on derivation slots, the degree of
a_i * d_i is udeg(a_i) + v_i.

The module D(f) of derivations preserving the ideal powers of a factored
polynomial f = f_1^{e_1} ... f_r^{e_r} is one syzygy kernel: delta lies in
D(f) exactly when its coefficients are a syzygy of the columns
(df_1/dx_i, ..., df_r/dx_i) modulo f_j^{e_j} in slot j.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .poly import (
    MonomialOrder,
    NonPositiveWeightError,
    Polynomial,
    exact_div,
    format_poly,
    parse_poly,
    partial_derivative,
    polynomial_gcd,
    squarefree_test,
    weighted_degree,
)
from .groebner import (
    FreeModule,
    Vector,
    buchberger,
    module_equal,
    module_quotient,
    normal_form,
    ring_module,
    syzygies,
    vec_is_zero,
)
from .resolution import Resolution, free_resolution, minimize


@dataclass(frozen=True)
class GradedContext:
    """Weights u on the variables and shifts v on the derivation slots."""

    u: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self):
        if any(w <= 0 for w in self.u):
            raise NonPositiveWeightError(f"weights must be positive, got {self.u}")
        if len(self.u) != len(self.v):
            raise ValueError("u and v must have the same length")

    @classmethod
    def from_uk(cls, u: tuple[int, ...], k: int) -> "GradedContext":
        return cls(tuple(u), tuple(k - w for w in u))

    @classmethod
    def standard(cls, n: int) -> "GradedContext":
        return cls((1,) * n, (0,) * n)

    @property
    def k(self) -> int | None:
        """The common value of u_i + v_i required by the graded theory, or
        None when u + v is not constant."""
        ks = {a + b for a, b in zip(self.u, self.v)}
        return ks.pop() if len(ks) == 1 else None

    @property
    def nvars(self) -> int:
        return len(self.u)

    @property
    def v_sum(self) -> int:
        return sum(self.v)

    def order(self) -> MonomialOrder:
        return MonomialOrder(self.u)

    def derivation_module(self) -> FreeModule:
        return FreeModule(self.nvars, self.v, self.order())

    def require_constraint(self) -> int:
        if self.k is None:
            raise ValueError("this operation requires u + v = (k,...,k)")
        return self.k


@dataclass(frozen=True)
class FactoredPolynomial:
    """User-asserted factorization f = prod f_i^{e_i}.

    Irreducibility of the factors is taken on trust; validation checks only
    what the constructions rely on, namely that each factor is nonconstant
    and squarefree and that the factors are pairwise without common factors.
    """

    factors: tuple[tuple[Polynomial, int], ...]

    def __post_init__(self):
        for f, e in self.factors:
            if e < 1:
                raise ValueError("multiplicities must be >= 1")
            if f.is_zero():
                raise ValueError("zero factor")

    @classmethod
    def single(cls, f: Polynomial, e: int = 1) -> "FactoredPolynomial":
        return cls(((f, e),))

    @property
    def nvars(self) -> int:
        return self.factors[0][0].nvars if self.factors else 0

    def expand(self) -> Polynomial:
        if not self.factors:
            raise ValueError("empty factorization has no intrinsic variable count")
        result = Polynomial.constant(1, self.nvars)
        for f, e in self.factors:
            result = result * f ** e
        return result

    def reduced(self) -> Polynomial:
        result = Polynomial.constant(1, self.nvars)
        for f, _ in self.factors:
            result = result * f
        return result

    def validate(self):
        for f, _ in self.factors:
            if f.is_constant():
                raise ValueError("constant factor")
            ok, witness = squarefree_test(f)
            if not ok:
                raise ValueError("factor is not squarefree "
                                 f"(repeated part witness has {_term_preview(witness)})")
        for i in range(len(self.factors)):
            for j in range(i + 1, len(self.factors)):
                g = polynomial_gcd(self.factors[i][0], self.factors[j][0])
                if not g.is_constant():
                    raise ValueError(f"factors {i} and {j} share the common factor "
                                     f"with {_term_preview(g)}")


def _term_preview(p: Polynomial, shown: int = 4) -> str:
    """Term count and first exponent tuples of p: one short line however large p is."""
    exps = sorted(p.terms)
    head = f"{len(exps)} terms, the first {shown} " if len(exps) > shown else "terms "
    return head + str(exps[:shown])


def format_derivation(coeffs: Vector, names: list[str], order=None) -> str:
    """Derivations print as coefficient * d_variable terms, e.g.
    `9*x*d_x + 8*y*d_y + 6*z*d_z`."""
    pieces = []
    for name, a in zip(names, coeffs):
        if a.is_zero():
            continue
        text = format_poly(a, names, order)
        if text == "1":
            piece = f"d_{name}"
        elif text == "-1":
            piece = f"-d_{name}"
        elif len(a.terms) == 1:
            piece = f"{text}*d_{name}"
        else:
            piece = f"({text})*d_{name}"
        pieces.append(piece)
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += f" - {piece[1:]}"
        else:
            out += f" + {piece}"
    return out


def parse_derivation(text: str, names: list[str]) -> Vector:
    """Inverse of format_derivation: the d_* symbols are parsed as extra
    variables, and every term must be linear in them."""
    n = len(names)
    extended = list(names) + [f"d_{name}" for name in names]
    p = parse_poly(text, extended)
    comps: list[dict] = [dict() for _ in range(n)]
    for exps, c in p.terms.items():
        dpart = exps[n:]
        if sum(dpart) != 1:
            raise ValueError(f"term is not linear in the derivation symbols: {text!r}")
        slot = dpart.index(1)
        comps[slot][exps[:n]] = c
    return tuple(Polynomial(n, comp) for comp in comps)


def apply_derivation(coeffs: Vector, g: Polynomial) -> Polynomial:
    """Value sum(a_i * dg/dx_i) of the derivation on g."""
    if len(coeffs) != g.nvars:
        raise ValueError("derivation and polynomial have different variable counts")
    out = Polynomial.zero(g.nvars)
    for i, a in enumerate(coeffs):
        if not a.is_zero():
            out = out + a * partial_derivative(g, i)
    return out


def euler_derivation(u: tuple[int, ...]) -> Vector:
    """sum(u_i * x_i * d_i); scales any u-homogeneous g of degree d to d*g."""
    n = len(u)
    return tuple(Polynomial.variable(i, n) * u[i] for i in range(n))


def log_derivations(factors: Sequence[tuple[Polynomial, int]], ctx: GradedContext) -> list[Vector]:
    """Generators of the derivations delta with delta(f) in <f^e> for every
    factor (f, e).

    Computed as the syzygies of the columns (df_1/dx_i, ..., df_r/dx_i)
    modulo f_j^{e_j} in slot j.  Slot j carries -deg f_j (the largest
    u-weighted degree), so column i has degree -u_i and u-homogeneous
    factors give homogeneous input and homogeneous generators.
    """
    n = ctx.nvars
    for f, e in factors:
        if f.is_constant():
            raise ValueError("constant polynomial")
        if e < 1:
            raise ValueError("power must be >= 1")
        if f.nvars != n:
            raise ValueError("variable count mismatch with the context")
    shifts = tuple(-max(weighted_degree(exps, ctx.u) for exps in f.terms) for f, _ in factors)
    ambient = FreeModule(n, shifts, ctx.order())
    columns = [tuple(partial_derivative(f, i) for f, _ in factors) for i in range(n)]
    zero = Polynomial.zero(n)
    relations = [
        tuple(f ** e if slot == j else zero for slot in range(len(factors)))
        for j, (f, e) in enumerate(factors)
    ]
    return syzygies(ambient, columns, relations)[1]


def generalized_log_module(
    factored: FactoredPolynomial, ctx: GradedContext, validate: bool = True
) -> list[Vector]:
    """Canonical (reduced-basis) generators of D(f), the derivations delta
    with delta(f_i) in <f_i^{e_i}> for every factor.  An empty factorization
    denotes a nonzero constant, whose module is everything."""
    if validate:
        factored.validate()
    gens = log_derivations(factored.factors, ctx)
    return list(buchberger(ctx.derivation_module(), gens).elements)


@dataclass(frozen=True, eq=False)
class LogModule:
    """D(f) of one factored polynomial under one grading, with its
    resolution and minimal resolution computed on first use and then kept,
    so that every check on the instance reads the same objects.

    `of` computes D(f) from a factorization it validates; a caller that has
    checked the factorization passes the generators, which also serve under a
    grading that shifts every slot alike (see harness.verify_v_shift).
    """

    factored: FactoredPolynomial
    ctx: GradedContext
    gens: list[Vector]

    @classmethod
    def of(cls, factored: FactoredPolynomial, ctx: GradedContext) -> "LogModule":
        return cls(factored, ctx, generalized_log_module(factored, ctx))

    @cached_property
    def module(self) -> FreeModule:
        return self.ctx.derivation_module()

    @cached_property
    def resolution(self) -> Resolution:
        return free_resolution(self.module, self.gens)

    @cached_property
    def minimal(self) -> Resolution:
        return minimize(self.resolution)


@dataclass(frozen=True)
class SaitoCertificate:
    is_basis: bool
    constant: Fraction | None
    determinant: Polynomial
    reason: str | None = None


def _det(matrix: list[list[Polynomial]]) -> Polynomial:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    nvars = matrix[0][0].nvars
    total = Polynomial.zero(nvars)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        cofactor = entry * _det(minor)
        total = total + cofactor if j % 2 == 0 else total - cofactor
    return total


def in_log_module(delta: Vector, factored: FactoredPolynomial) -> bool:
    """Per-factor membership delta(f_i) in <f_i^{e_i}> (a divisibility test)."""
    for f, e in factored.factors:
        value = apply_derivation(delta, f)
        if value.is_zero():
            continue
        try:
            exact_div(value, f ** e)
        except ValueError:
            return False
    return True


def saito_check(deltas: list[Vector], factored: FactoredPolynomial) -> SaitoCertificate:
    """Freeness certificate: n derivations in the module form a basis iff
    the determinant of their coefficient matrix is a nonzero constant
    multiple of f."""
    f = factored.expand()
    n = f.nvars
    if len(deltas) != n:
        raise ValueError(f"need exactly {n} derivations, got {len(deltas)}")
    for idx, delta in enumerate(deltas):
        if not in_log_module(delta, factored):
            raise ValueError(f"derivation {idx} is not in the module")
    matrix = [[deltas[j][i] for j in range(n)] for i in range(n)]
    det = _det(matrix)
    if det.is_zero():
        return SaitoCertificate(False, None, det, "zero determinant")
    try:
        q = exact_div(det, f)
    except ValueError:
        return SaitoCertificate(False, None, det, "determinant is not a multiple of f")
    if q.is_constant():
        return SaitoCertificate(True, q.constant_coefficient(), det)
    return SaitoCertificate(False, None, det, "determinant / f is not constant")


def annihilator_check(mod: LogModule) -> dict:
    """Computes the ideal (D(f) : D) and verifies it equals <f>."""
    dm = mod.module
    units = [dm.unit_vector(i) for i in range(dm.rank)]
    ideal = module_quotient(dm, mod.gens, units)
    f = mod.factored.expand()
    ring = ring_module(mod.ctx.nvars, mod.ctx.order())
    ok = module_equal(ring, [(g,) for g in ideal], [(f,)])
    return {"ok": ok, "ideal": ideal, "f": f}


def homogeneous_components(ctx: GradedContext, coeffs: Vector) -> dict[int, Vector]:
    """Split a derivation by the common degree udeg(a_i) + v_i of its terms."""
    n = ctx.nvars
    buckets: dict[int, list[dict]] = {}
    for slot, a in enumerate(coeffs):
        for exps, c in a.terms.items():
            d = sum(e * w for e, w in zip(exps, ctx.u)) + ctx.v[slot]
            comp = buckets.setdefault(d, [dict() for _ in range(n)])
            comp[slot][exps] = c
    return {
        d: tuple(Polynomial(n, comp[i]) for i in range(n))
        for d, comp in sorted(buckets.items())
    }


def is_graded_submodule(
    gens: list[Vector], ctx: GradedContext
) -> tuple[bool, list[dict[int, Vector]]]:
    """True iff every generator's homogeneous components stay in the module."""
    dm = ctx.derivation_module()
    gb = buchberger(dm, gens)
    decompositions = []
    graded = True
    for g in gens:
        comps = homogeneous_components(ctx, g)
        decompositions.append(comps)
        for comp in comps.values():
            if not vec_is_zero(normal_form(dm, comp, gb)):
                graded = False
    return graded, decompositions
