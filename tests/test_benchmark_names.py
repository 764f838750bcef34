"""The benchmark under perfbench/ reaches into the package by name: the
tracer wraps `TRACED` functions looked up with getattr, and the workloads
import names from `logderiv` and call functions of its modules.  A rename or
deletion in the package must fail here, not only in the benchmark."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import logderiv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    # tracer.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    for module_name, attr in load_tracer().TRACED:
        owner = importlib.import_module(f"logderiv.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"logderiv.{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner)


def resolve(name):
    """A name of the logderiv package, or one of its submodules."""
    if hasattr(logderiv, name):
        return getattr(logderiv, name)
    return importlib.import_module(f"logderiv.{name}")


def test_workload_names_exist_with_the_keywords_they_are_called_with():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name: resolve(alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "logderiv"
        for alias in node.names
    }
    assert {"homog", "resolution", "derivmod", "hilbert", "harness", "cli"} <= set(imported)
    modules = {name for name, value in imported.items() if inspect.ismodule(value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            assert hasattr(imported[node.value.id], node.attr), ast.unparse(node)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
            target = getattr(imported[func.value.id], func.attr)
        elif isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        else:
            continue
        # the argument count and keyword names, so that an arity change
        # fails here too; the AST nodes stand in for the values
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(kw.arg is not None for kw in node.keywords), ast.unparse(node)
        try:
            inspect.signature(target).bind(*node.args, **{kw.arg: kw for kw in node.keywords})
        except TypeError as err:
            raise AssertionError(f"{ast.unparse(node)}: {err}") from None


def test_tracer_observers_read_what_the_package_returns():
    # the observers read attributes of results (basis elements, resolution
    # ranks, image verdicts, normal forms); one homogenize call exercises all
    # of them but normal_form, called here through its module so that the
    # tracer's wrapper sees it
    from logderiv import derivmod, groebner, homog
    from logderiv.derivmod import FactoredPolynomial, GradedContext
    from logderiv.poly import parse_poly

    tracer = load_tracer()
    f = FactoredPolynomial.single(parse_poly("x^2+y^3+x*y", ["x", "y"]))
    ctx = GradedContext.standard(2)
    dm = ctx.derivation_module()
    with tracer.Tracer() as t:
        homog.chi_homogenized(f)
        gb = groebner.buchberger(dm, derivmod.generalized_log_module(f, ctx))
        groebner.normal_form(dm, groebner.Row.unit(0, dm.rank, dm.nvars).vector(), gb)
    for name in tracer.OBSERVERS:
        assert t.observations[name], name
    metrics = t.layer_metrics()
    assert metrics["homog.chi_homogenized.calls"] == 1
