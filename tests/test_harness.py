import random

from logderiv import derivmod, harness
from logderiv.derivmod import generalized_log_module
from logderiv.groebner import buchberger
from logderiv.harness import random_instance, run_harness


def test_random_instances_pass_validation():
    # run_harness skips FactoredPolynomial.validate because the rejection
    # tests of random_instance are the same checks
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(50):
            factored, _ = random_instance(rng)
            factored.validate()


def test_harness_computes_each_module_once(monkeypatch):
    calls = {"module": 0, "validate": 0}
    inner = harness.generalized_log_module

    def counted(*args, **kwargs):
        calls["module"] += 1
        return inner(*args, **kwargs)

    def validate(self):
        calls["validate"] += 1

    monkeypatch.setattr(harness, "generalized_log_module", counted)
    monkeypatch.setattr(derivmod.FactoredPolynomial, "validate", validate)
    report = run_harness(3, seed=0, inject_fault=True)
    # D(f) of the instance, and of the same instance with v shifted by one
    assert calls == {"module": 6, "validate": 0}
    assert [inst["ok"] for inst in report["instances"]] == [False, True, True]


def test_two_factor_log_modules_are_already_reduced():
    # D(f) of two factors, one syzygy kernel, comes back as a reduced basis
    rng = random.Random(7)
    checked = 0
    while checked < 6:
        factored, ctx = random_instance(rng)
        if len(factored.factors) < 2:
            continue
        out = generalized_log_module(factored, ctx, validate=False)
        assert tuple(out) == buchberger(ctx.derivation_module(), out).elements
        checked += 1
