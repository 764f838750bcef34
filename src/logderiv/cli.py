"""Command-line surface: thin wrappers over the library operations with
machine-readable reporting.

Exit codes: 0 when every verdict passes, 1 when any claim fails, 2 for
usage, parse or precondition errors.  JSON reports are versioned
(schema: 1) and byte-identical for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys

from .poly import Polynomial, format_poly, infer_weights, parse_poly
from .groebner import module_equal, vector_grading
from .derivmod import (
    FactoredPolynomial,
    GradedContext,
    LogModule,
    format_derivation,
    parse_derivation,
    saito_check,
)
from .resolution import alternating_degree_sum, alternating_rank_sum, betti_numbers
from .hilbert import (
    DEFAULT_ORACLE_DEGREE,
    MAX_ORACLE_DEGREE,
    chi,
    claim,
    format_series,
    hp_free,
    hp_from_basis,
    report_ok,
    verify_degree_identity,
)
from .homog import chi_homogenized, verify_lemma_intersection
from .harness import MAX_TOTAL_WEIGHTED_DEGREE, MAX_VARS, run_harness

SCHEMA = 1


class UsageError(ValueError):
    pass


def _parse_int_list(text: str, n: int, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{what} must be a comma-separated integer list") from exc
    if len(values) != n:
        raise UsageError(f"{what} must have {n} entries, got {len(values)}")
    return values


def _parse_names(text: str) -> list[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise UsageError("--vars must list the variable names")
    if len(set(names)) != len(names):
        raise UsageError(f"--vars lists a variable name twice: {text}")
    for i, name in enumerate(names):
        try:
            read = parse_poly(name, names)
        except ValueError:
            read = None
        if read != Polynomial.variable(i, len(names)):
            raise UsageError(f"--vars name {name!r} is not one that a polynomial can mention")
        if name.startswith("d_") and name[2:] in names:
            raise UsageError(f"--vars name {name!r} is the derivation symbol of {name[2:]!r}")
    return names


def _parse_factors(text: str, names: list[str]) -> tuple[tuple[Polynomial, int], ...]:
    """factor:multiplicity pairs; a bare factor has multiplicity 1."""
    factors = []
    for part in text.split(","):
        base, sep, mult = part.rpartition(":")
        if not sep:
            base, mult = part, "1"
        if not base.strip():
            raise UsageError(f"--factors has an empty factor in {text!r}")
        try:
            mult = int(mult)
        except ValueError as exc:
            raise UsageError(f"--factors multiplicity must be an integer, got {part!r}") from exc
        if mult < 1:
            raise UsageError(f"--factors multiplicity must be >= 1, got {part!r}")
        try:
            factors.append((parse_poly(base, names), mult))
        except ValueError as exc:
            raise UsageError(f"--factors entry {part!r}: {exc}") from exc
    return tuple(factors)


def _build_inputs(args) -> tuple[list[str], FactoredPolynomial, GradedContext]:
    names = _parse_names(args.vars)
    if args.k is not None and args.k < 1:
        raise UsageError(f"--k must be a power >= 1, got {args.k}")
    n = len(names)
    f = parse_poly(args.poly, names)
    if f.is_constant():
        raise UsageError("constant input: the polynomial must be nonconstant")
    if args.factors:
        if args.k is not None:
            raise UsageError("--k and --factors cannot be combined: give the power "
                             "as a multiplicity in --factors")
        factored = FactoredPolynomial(_parse_factors(args.factors, names))
        if factored.expand() != f:
            raise UsageError("the factorization does not multiply out to the polynomial")
    else:
        # with --k the polynomial is the base of a single-factor power
        factored = FactoredPolynomial.single(f, 1 if args.k is None else args.k)
    if getattr(args, "infer_weights", False):
        if args.u:
            raise UsageError("--u and --infer-weights cannot be combined: give the weights "
                             "or infer them")
        u = infer_weights(f)
        if u is None:
            raise UsageError("no positive weight vector makes the input quasi-homogeneous")
    elif args.u:
        u = _parse_int_list(args.u, n, "--u")
    else:
        u = (1,) * n
    if args.v:
        ctx = GradedContext(u, _parse_int_list(args.v, n, "--v"))
    else:
        ctx = GradedContext.from_uk(u, max(u))
    return names, factored, ctx


def _emit(args, report: dict) -> int:
    report = {"schema": SCHEMA, "command": args.command, **report}
    ok = report.get("ok", True)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        _render_text(report)
    return 0 if ok else 1


def _render_text(report: dict, indent: str = ""):
    for key, value in report.items():
        if key == "claims":
            for c in value:
                print(f"{indent}[{c['verdict']}] {c['claim']}: {c['lhs']} vs {c['rhs']}")
        elif key == "instances":
            for inst in value:
                print(f"{indent}instance {inst['index']}: ok={inst['ok']}")
                for c in inst["claims"]:
                    if c["verdict"] != "pass":
                        print(f"{indent}  [fail] {c['claim']}: {c['lhs']} vs {c['rhs']}")
        elif isinstance(value, dict):
            print(f"{indent}{key}:")
            _render_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                print(f"{indent}  {json.dumps(item, sort_keys=True)}")
        else:
            print(f"{indent}{key}: {value}")


def cmd_derivations(args) -> int:
    names, factored, ctx = _build_inputs(args)
    mod = LogModule.of(factored, ctx)
    vectors = [g.vector() for g in mod.gens]
    report = {
        "inputs": _echo(args, ctx),
        "generators": [format_derivation(g, names, ctx.order()) for g in vectors],
        "coefficients": [
            [format_poly(p, names, ctx.order()) for p in g] for g in vectors
        ],
        "degrees": [
            d if homogeneous else None
            for d, homogeneous in (vector_grading(mod.module, g) for g in mod.gens)
        ],
        "ok": True,
    }
    return _emit(args, report)


def cmd_resolution(args) -> int:
    names, factored, ctx = _build_inputs(args)
    res = LogModule.of(factored, ctx).resolution
    matrices = []
    for p, m in enumerate(res.chain):
        matrices.append(
            [[format_poly(m.entry(i, j), names, ctx.order()) for j in range(m.source_rank)]
             for i in range(len(res.target_shifts(p)))]
        )
    report = {
        "inputs": _echo(args, ctx),
        "graded": res.graded,
        "shifts": [list(res.shifts(p)) for p in range(res.length + 1)],
        "matrices": matrices,
        "minimal": res.is_minimal(),
        "alternating_degree_sum": alternating_degree_sum(res),
        "alternating_rank_sum": alternating_rank_sum(res),
        "ok": True,
    }
    return _emit(args, report)


def cmd_betti(args) -> int:
    names, factored, ctx = _build_inputs(args)
    mod = LogModule.of(factored, ctx)
    if not mod.resolution.graded:
        raise UsageError("betti numbers need a quasi-homogeneous input")
    table = betti_numbers(mod.minimal)
    report = {
        "inputs": _echo(args, ctx),
        "betti": table.to_triples(),
        "table": table.render(),
        "ok": True,
    }
    return _emit(args, report)


def cmd_chi(args) -> int:
    names, factored, ctx = _build_inputs(args)
    report = verify_degree_identity(factored, ctx, d_max=args.dmax)
    report = {"inputs": _echo(args, ctx), **report}
    return _emit(args, report)


def cmd_hilbert(args) -> int:
    n = len(_parse_names(args.vars))
    u = _parse_int_list(args.u, n, "--u") if args.u else (1,) * n
    if not args.poly:
        given = [
            flag
            for flag, value in (("--v", args.v), ("--k", args.k), ("--factors", args.factors),
                                ("--infer-weights", args.infer_weights or None))
            if value is not None
        ]
        if given:
            raise UsageError(
                "without a polynomial, hilbert gives the series of the polynomial ring "
                f"and takes only --vars and --u; got {', '.join(given)}"
            )
        hp = hp_free([0], u)
        report = {"series": format_series(hp), "ok": True}
        return _emit(args, report)
    _, factored, ctx = _build_inputs(args)
    mod = LogModule.of(factored, ctx)
    if not all(vector_grading(mod.module, g)[1] for g in mod.gens):
        raise UsageError("the series needs a quasi-homogeneous input")
    hp = hp_from_basis(mod.module, mod.gens)
    report = {
        "inputs": _echo(args, ctx),
        "series": format_series(hp),
        "chi": chi(hp),
        "ok": True,
    }
    return _emit(args, report)


def cmd_saito(args) -> int:
    names, factored, ctx = _build_inputs(args)
    deltas = []
    with open(args.derivations, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            deltas.append(parse_derivation(line, names))
    cert = saito_check(deltas, factored)
    claims = [claim("the determinant is a nonzero constant multiple of f",
                    cert.is_basis, True)]
    spans = None
    if cert.is_basis:
        mod = LogModule.of(factored, ctx)
        spans = module_equal(mod.module, deltas, mod.gens)
        claims.append(claim("the certified basis generates the computed module",
                            spans, True))
    report = {
        "inputs": _echo(args, ctx),
        "is_basis": cert.is_basis,
        "constant": str(cert.constant) if cert.constant is not None else None,
        "determinant": format_poly(cert.determinant, names, ctx.order()),
        "reason": cert.reason,
        "claims": claims,
        "ok": report_ok(claims),
    }
    return _emit(args, report)


def cmd_homogenize(args) -> int:
    if args.u or args.v or args.infer_weights:
        raise UsageError("homogenize uses the standard grading: no --u, --v or --infer-weights")
    names, factored, ctx = _build_inputs(args)
    mix = None if args.mix is None else _parse_int_list(args.mix, 2, "--mix")
    mod = LogModule.of(factored, ctx)
    report = chi_homogenized(mod, mix=mix)
    if args.check_intersection:
        lemma = verify_lemma_intersection(mod)
        report["claims"] = report["claims"] + lemma["claims"]
        report["ok"] = report["ok"] and lemma["ok"]
    report = {"inputs": _echo(args, ctx), **report}
    return _emit(args, report)


def cmd_verify(args) -> int:
    if args.random < 0:
        raise UsageError(f"--random must be an instance count >= 0, got {args.random}")
    if not 2 <= args.max_vars <= MAX_VARS:
        raise UsageError(f"--max-vars must be >= 2 and <= {MAX_VARS}, got {args.max_vars}")
    if not 2 <= args.max_degree <= MAX_TOTAL_WEIGHTED_DEGREE:
        raise UsageError(f"--max-degree must be >= 2 and <= {MAX_TOTAL_WEIGHTED_DEGREE}, the cap "
                         f"on an instance's weighted degree, got {args.max_degree}")
    report = run_harness(
        args.random,
        max_vars=args.max_vars,
        max_degree=args.max_degree,
        seed=args.seed,
        d_max=args.dmax,
        inject_fault=args.inject_fault,
    )
    return _emit(args, report)


def _echo(args, ctx: GradedContext) -> dict:
    echo = {
        "poly": getattr(args, "poly", None),
        "vars": args.vars,
        "u": list(ctx.u),
        "v": list(ctx.v),
    }
    if ctx.k is not None:
        echo["k"] = ctx.k
    if getattr(args, "factors", None):
        echo["factors"] = args.factors
    return echo


def _add_common(parser, poly_required=True):
    if poly_required:
        parser.add_argument("poly", help="polynomial text over the declared variables")
    else:
        parser.add_argument("poly", nargs="?", default=None)
    parser.add_argument("--vars", required=True, help="comma-separated variable names")
    parser.add_argument("--factors", help="comma-separated factor:multiplicity pairs")
    parser.add_argument("--u", help="comma-separated positive weights")
    parser.add_argument("--v", help="comma-separated derivation-slot shifts")
    parser.add_argument(
        "--k", type=int,
        help="power e >= 1 of the single polynomial, not with --factors (the JSON "
        "field inputs.k is the grading constant u_i + v_i, not this power)",
    )
    parser.add_argument(
        "--infer-weights", action="store_true",
        help="infer the weight vector from the polynomial",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logderiv",
        description="logarithmic derivation modules, resolutions, Betti numbers, "
                    "Hilbert-Poincare series and the chi invariant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derivations", help="generators of the derivation module")
    _add_common(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("resolution", help="free resolution with shifts and matrices")
    _add_common(p)
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("betti", help="graded Betti table of the minimal resolution")
    _add_common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("chi", help="chi invariant and the degree identity")
    _add_common(p)
    p.add_argument("--dmax", type=int, default=DEFAULT_ORACLE_DEGREE,
                   help=f"expansion bound for the series oracle, at most {MAX_ORACLE_DEGREE}")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("hilbert", help="Hilbert-Poincare series")
    _add_common(p, poly_required=False)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("saito", help="freeness certificate for a derivation list")
    _add_common(p)
    p.add_argument("--derivations", required=True,
                   help="file with one derivation per line")
    p.set_defaults(func=cmd_saito)

    p = sub.add_parser("homogenize", help="homogenization pipeline and chi = deg f")
    _add_common(p)
    p.add_argument("--mix", help="i,j: replace generator i by i + j first")
    p.add_argument("--check-intersection", action="store_true",
                   help="also verify the coordinate-span intersection identity")
    p.set_defaults(func=cmd_homogenize)

    p = sub.add_parser("verify", help="randomized identity-verification harness")
    p.add_argument("--random", type=int, default=25, help="number of instances")
    p.add_argument("--max-vars", type=int, default=3,
                   help=f"largest number of variables of an instance, 2..{MAX_VARS}")
    p.add_argument("--max-degree", type=int, default=6,
                   help=f"largest weighted degree of a factor, 2..{MAX_TOTAL_WEIGHTED_DEGREE}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dmax", type=int, default=DEFAULT_ORACLE_DEGREE,
                   help=f"expansion bound for the series oracle, at most {MAX_ORACLE_DEGREE}")
    p.add_argument("--inject-fault", action="store_true",
                   help="negative control: corrupt one resolution")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
