import random

from logderiv import derivmod, harness, resolution
from logderiv.derivmod import LogModule, generalized_log_module
from logderiv.groebner import buchberger
from logderiv.harness import random_instance, run_harness, shift_context, verify_v_shift
from logderiv.hilbert import chi, hp_from_resolution
from logderiv.poly import partial_derivative

from test_homog import bind_everywhere


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
    assert calls == {"module": 3, "validate": 0}
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
        assert tuple(out) == buchberger(ctx.derivation_module(), out).rows
        checked += 1


def test_v_shift_keeps_the_reduced_basis_and_shifts_the_resolution():
    # the fact verify_v_shift rests on when it reads chi under v + 1 off the
    # instance's basis: D(f) does not depend on v, a shift common to every
    # slot keeps the term order, so the basis stays reduced under v + 1 and
    # the resolution under v + 1 is the instance's with every shift raised
    rng = random.Random(2024)
    zero_columns = two_factors = 0
    for _ in range(120):
        factored, ctx = random_instance(rng)
        n = ctx.nvars
        zero_columns += any(
            all(partial_derivative(f, i).is_zero() for f, _ in factored.factors)
            for i in range(n)
        )
        two_factors += len(factored.factors) == 2
        gens = generalized_log_module(factored, ctx, validate=False)
        shifted_ctx = shift_context(ctx)
        assert generalized_log_module(factored, shifted_ctx, validate=False) == gens
        res = LogModule(factored, ctx, gens).resolution
        shifted = LogModule(factored, shifted_ctx, gens).resolution
        assert shifted.length == res.length
        for phi, shifted_phi in zip(res.chain, shifted.chain):
            assert shifted_phi.columns == phi.columns
            assert shifted_phi.source_shifts == tuple(s + 1 for s in phi.source_shifts)
    assert zero_columns >= 3 and two_factors >= 3


def test_harness_resolves_each_instance_once(monkeypatch):
    # one resolution per instance, plus the redundant-generator resolution
    # of each of the two heavy instances among the first twenty
    calls = []
    inner = resolution.free_resolution

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    bind_everywhere(monkeypatch, inner, counted)
    report = run_harness(20, seed=0)
    assert report["ok"]
    assert len(calls) == 20 + 2


def test_v_shift_claim_fails_on_a_module_that_lost_a_generator():
    # negative control: without its last generator the rows are no longer
    # D(f)'s basis, so the leads under v + 1 and the resolution under v
    # disagree on chi
    rng = random.Random(0)
    failed = 0
    for _ in range(100):
        factored, ctx = random_instance(rng)
        gens = generalized_log_module(factored, ctx, validate=False)
        broken = LogModule(factored, ctx, gens[:-1])
        (result,) = verify_v_shift(broken, chi(hp_from_resolution(broken.resolution)))
        failed += result["verdict"] == "fail"
    assert failed >= 80, failed
