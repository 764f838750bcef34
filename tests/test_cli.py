import json

import pytest

from logderiv import derivmod, groebner, harness, hilbert
from logderiv.cli import main
from test_homog import bind_everywhere


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derivations_conic(capsys):
    code, out, _ = run(
        capsys, "derivations", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert len(report["generators"]) == 2
    assert report["degrees"] == [1, 1]


def test_derivations_factored_monomial(capsys):
    code, out, _ = run(
        capsys, "derivations", "x^2*y^3", "--vars", "x,y", "--factors", "x:2,y:3",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert sorted(report["generators"]) == ["x^2*d_x", "y^3*d_y"]


def test_derivations_of_a_sum_of_high_powers(capsys):
    # exponents far past any fixed packed field width in the Groebner engine
    code, out, err = run(
        capsys, "derivations", "x^40000+y^40000", "--vars", "x,y", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out == (
        '{"coefficients":[["-y^39999","x^39999"],["x","y"]],"command":"derivations",'
        '"degrees":[39999,1],"generators":["-y^39999*d_x + x^39999*d_y","x*d_x + y*d_y"],'
        '"inputs":{"k":1,"poly":"x^40000+y^40000","u":[1,1],"v":[0,0],"vars":"x,y"},'
        '"ok":true,"schema":1}\n'
    )


def test_constant_input_is_usage_error(capsys):
    code, _, err = run(capsys, "derivations", "5", "--vars", "x,y")
    assert code == 2
    assert "constant" in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "chi", "x^2+", "--vars", "x,y")
    assert code == 2


def test_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "derivations", "1/0*x", "--vars", "x")
    assert code == 2
    assert out == ""
    assert "nonzero integer denominator" in err


def test_bad_factorization_rejected(capsys):
    code, _, err = run(
        capsys, "derivations", "x^2*y^3", "--vars", "x,y", "--factors", "x:1,y:3"
    )
    assert code == 2
    assert "multiply out" in err


def test_not_squarefree_message_is_capped(capsys):
    # the repeated part (x+y+z)^39 has 820 terms; the message shows a few
    code, out, err = run(capsys, "derivations", "(x+y+z)^40", "--vars", "x,y,z")
    assert code == 2
    assert out == ""
    assert "not squarefree" in err
    assert "820 terms" in err
    assert len(err) < 300


def test_shared_factor_message_is_capped(capsys):
    g = "(x^3+y^3+z^3+x*y*z+x^2*y+y^2*z+1)"
    code, out, err = run(
        capsys, "derivations", f"{g}^2*x*y", "--vars", "x,y,z", "--factors", f"{g}*x,{g}*y"
    )
    assert code == 2
    assert out == ""
    assert "factors 0 and 1 share the common factor with 7 terms" in err
    assert len(err) < 300


def test_proportional_linear_factors_are_rejected(capsys):
    code, out, err = run(
        capsys, "derivations", "2*x^2+4*x*y+2*y^2", "--vars", "x,y", "--factors", "x+y,2*x+2*y"
    )
    assert (code, out) == (2, "")
    assert err == "error: factors 0 and 1 share the common factor with terms [(0, 1), (1, 0)]\n"


def test_chi_command_passes_and_reports(capsys):
    code, out, _ = run(
        capsys, "chi", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == 2 and report["expected"] == 2
    assert report["ok"] is True


def test_chi_with_inferred_weights(capsys):
    code, out, _ = run(
        capsys, "chi", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--infer-weights",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["u"] == [9, 8, 6]
    assert report["ok"] is True


def test_given_and_inferred_weights_are_refused_together(capsys):
    # --infer-weights used to win silently over --u
    code, out, err = run(
        capsys, "derivations", "x^2+y^3", "--vars", "x,y", "--u", "1,1", "--infer-weights",
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert "--u and --infer-weights" in err


def test_hilbert_free_ring(capsys):
    code, out, _ = run(capsys, "hilbert", "--vars", "x,y", "--u", "1,2")
    assert code == 0
    assert "1/((1-t)(1-t^2))" in out


def test_hilbert_refuses_an_input_that_is_not_quasi_homogeneous(capsys):
    code, out, err = run(capsys, "hilbert", "x^2+y", "--vars", "x,y", "--format", "json")
    assert (code, out) == (2, "")
    assert "the series needs a quasi-homogeneous input" in err


def test_hilbert_of_module(capsys):
    code, out, _ = run(
        capsys, "hilbert", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["series"] == "2*t/((1-t)(1-t))"
    assert report["chi"] == 2


def test_betti_worked_example_homogenized_pipeline(capsys):
    code, out, _ = run(
        capsys, "homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == 4
    assert sorted(report["shifts"][0]) == [1, 2, 3, 3]
    assert report["shifts"][1] == [5]


def test_homogenize_mix_negative_control(capsys):
    code, out, _ = run(
        capsys, "homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--mix", "0,1",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["homogenization_is_resolution"] is False
    assert report["recomputed_from_scratch"] is True
    assert report["chi"] == 4


def test_homogenize_mix_index_out_of_range(capsys):
    for mix in ("--mix=9,0", "--mix=-1,0"):
        code, out, err = run(
            capsys, "homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", mix,
        )
        assert code == 2 and out == ""
        assert "0..3" in err


def test_power_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "derivations", "x+y", "--vars", "x,y", "--k", "0")
    assert code == 2 and out == ""
    assert "--k" in err


def test_duplicate_variable_names_are_usage_error(capsys):
    code, out, err = run(capsys, "derivations", "x^2+y^2", "--vars", "x,x")
    assert code == 2 and out == ""
    assert "twice" in err


def test_variable_names_the_grammar_cannot_read_are_usage_error(capsys):
    # each name must parse, over the declared names, as that one variable
    for names, poly in (("a b,c", "c"), ("1x,x", "x"), ("x-y,x", "x"), ("x,2", "x")):
        code, out, err = run(capsys, "derivations", poly, "--vars", names)
        assert code == 2 and out == "", names
        assert "--vars name" in err and "can mention" in err, names


def test_a_derivation_symbol_as_a_variable_name_is_usage_error(capsys, tmp_path):
    # d_x would be read as the derivation symbol of x, not as a variable
    basis = tmp_path / "basis.txt"
    basis.write_text("d_x*d_x\n", encoding="utf-8")
    for argv in (("derivations", "x*d_x", "--vars", "x,d_x"),
                 ("saito", "x*d_x", "--vars", "x,d_x", "--derivations", str(basis))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "derivation symbol of 'x'" in err, argv


def test_saito_certificate(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("x^2*d_x\ny^3*d_y\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "saito", "x^2*y^3", "--vars", "x,y", "--factors", "x:2,y:3",
        "--derivations", str(basis), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["is_basis"] is True and report["constant"] == "1"


def test_saito_rotated_conic(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("x*d_x + y*d_y\ny*d_x - x*d_y\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "saito", "x^2+y^2", "--vars", "x,y",
        "--derivations", str(basis), "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["is_basis"] is True and report["constant"] == "-1"


def test_saito_dependent_columns(capsys, tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("x^2*d_x\nx^2*d_x\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "saito", "x^2", "--vars", "x,y", "--factors", "x:2",
        "--derivations", str(basis), "--format", "json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["is_basis"] is False


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--random", "3", "--seed", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(
        capsys, "verify", "--random", "2", "--seed", "0", "--inject-fault", "--format", "json"
    )
    assert code == 1
    failing = [
        (inst["index"], c["claim"])
        for inst in json.loads(out)["instances"]
        for c in inst["claims"]
        if c["verdict"] != "pass"
    ]
    assert len(failing) == 1
    index, name = failing[0]
    assert index == 0 and name.endswith("[corrupted resolution]")


def test_verify_empty_run_passes(capsys):
    code, out, _ = run(capsys, "verify", "--random", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["instances"] == []


def test_json_reports_are_deterministic(capsys):
    args = (
        "verify", "--random", "4", "--seed", "7", "--format", "json",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args2 = ("chi", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0",
             "--format", "json")
    _, third, _ = run(capsys, *args2)
    _, fourth, _ = run(capsys, *args2)
    assert third == fourth


@pytest.mark.parametrize(
    "argv, message",
    [
        (("chi", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0", "--dmax", "-3"),
         "degree range 0..-3 is empty"),
        (("verify", "--random", "2", "--dmax", "-5"), "is empty"),
        (("verify", "--random", "-3"), "--random must be an instance count >= 0"),
        (("verify", "--max-vars", "1"), "--max-vars must be >= 2"),
        (("verify", "--random", "3", "--max-degree", "-4"), "--max-degree must be >= 2"),
        (("verify", "--max-degree", "1"), "--max-degree must be >= 2"),
    ],
    ids=["chi-dmax-negative", "verify-dmax-negative", "verify-random-negative",
         "verify-max-vars-1", "verify-max-degree-negative", "verify-max-degree-1"],
)
def test_bad_verify_and_oracle_bounds_are_usage_errors(capsys, argv, message):
    # each of these used to pass silently or end in a traceback
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "flags",
    [("--u", "9,8,6"), ("--v", "0,1,3"), ("--infer-weights",)],
    ids=["u", "v", "infer-weights"],
)
def test_homogenize_refuses_grading_flags(capsys, flags):
    # homogenize computes under the standard grading; it used to echo these
    # flags and ignore them
    code, out, err = run(
        capsys, "homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", *flags, "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert "standard grading" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("derivations", "x^2+y^2"),
        ("resolution", "x^2+y^2"),
        ("betti", "x^2+y^2"),
        ("hilbert",),
        ("saito", "x^2+y^2", "--derivations", "basis.txt"),
        ("homogenize", "x^2+y^2"),
    ],
    ids=["derivations", "resolution", "betti", "hilbert", "saito", "homogenize"],
)
def test_dmax_is_an_option_of_chi_only(capsys, argv):
    # only chi (and verify, with its own flag) runs the series oracle
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--vars", "x,y", "--dmax", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dmax" in capsys.readouterr().err


def test_resolution_bounds_of_an_inhomogeneous_input_are_weighted(capsys):
    # x^2 + y is not quasi-homogeneous under u = (2, 3), v = (1, 0): the
    # filtration bounds of the generators (x, 2y) and (-1/2, x) are their
    # largest (u, v)-weighted degrees 3 and 2, not their total degrees
    code, out, _ = run(
        capsys, "resolution", "x^2+y", "--vars", "x,y", "--u", "2,3", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert not report["graded"]
    assert report["matrices"] == [[["x", "-1/2"], ["2*y", "x"]]]
    assert report["shifts"] == [[3, 2]]
    assert report["alternating_degree_sum"] == 5


@pytest.mark.parametrize(
    "flags",
    [("--v", "5,5"), ("--k", "2"), ("--factors", "x:2"), ("--infer-weights",)],
    ids=["v", "k", "factors", "infer-weights"],
)
def test_hilbert_without_a_polynomial_refuses_polynomial_flags(capsys, flags):
    # with no polynomial, hilbert prints the series of the ring; these flags
    # used to be dropped with exit 0
    code, out, err = run(
        capsys, "hilbert", "--vars", "x,y", "--u", "1,2", *flags, "--format", "json"
    )
    assert code == 2
    assert out == ""
    assert "takes only --vars and --u" in err
    assert f"got {flags[0]}" in err


@pytest.mark.parametrize(
    "mix, message",
    [("a,b", "--mix must be a comma-separated integer list"),
     ("0,1,2", "--mix must have 2 entries, got 3")],
    ids=["not-integers", "three-entries"],
)
def test_bad_mix_names_the_flag(capsys, mix, message):
    code, out, err = run(
        capsys, "homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--mix", mix,
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_degree_of_an_inhomogeneous_generator_is_null(capsys):
    # under u = (2, 3), v = (1, 0) the generator (x, 2y) of x^2 + y has
    # degree 3, and (-1/2, x) mixes degrees 1 and 2
    code, out, _ = run(
        capsys, "derivations", "x^2+y", "--vars", "x,y", "--u", "2,3", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    degrees = dict(zip(report["generators"], report["degrees"]))
    assert degrees == {"x*d_x + 2*y*d_y": 3, "-1/2*d_x + x*d_y": None}


def test_power_with_factors_is_usage_error(capsys):
    # --k used to be dropped when --factors was given, printing D(x^2 y)
    code, out, err = run(
        capsys, "derivations", "x^2*y", "--vars", "x,y", "--factors", "x:2,y:1", "--k", "2"
    )
    assert code == 2
    assert out == ""
    assert "--k and --factors" in err


@pytest.mark.parametrize(
    "factors, message",
    [("x^2+y^2:a", "--factors multiplicity must be an integer, got 'x^2+y^2:a'"),
     ("x,y,", "--factors has an empty factor in 'x,y,'"),
     ("x+:2", "--factors entry 'x+:2'"),
     ("x:0,y", "--factors multiplicity must be >= 1, got 'x:0'"),
     ("x:-1,y", "--factors multiplicity must be >= 1, got 'x:-1'")],
    ids=["multiplicity-not-integer", "trailing-comma", "bad-factor", "multiplicity-zero",
         "multiplicity-negative"],
)
def test_malformed_factors_name_the_flag(capsys, factors, message):
    code, out, err = run(
        capsys, "derivations", "x^2+y^2", "--vars", "x,y", "--factors", factors
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_homogenize_check_intersection_computes_each_module_once(capsys, monkeypatch):
    # one D(f), for the resolution and the lemma; the lemma's side for f^h
    # is one kernel, with no basis of D(f^h) and no intersection
    calls = {"log_derivations": [], "generalized_log_module": [], "intersect": []}
    for home, name in [(derivmod, "log_derivations"), (derivmod, "generalized_log_module"),
                       (groebner, "intersect")]:
        def wrapper(*args, _inner=getattr(home, name), _name=name):
            calls[_name].append(args)
            return _inner(*args)

        bind_everywhere(monkeypatch, getattr(home, name), wrapper)
    code, out, _ = run(
        capsys, "homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--check-intersection",
        "--format", "json",
    )
    assert code == 0
    assert [args[1].nvars for args in calls["log_derivations"]] == [3]
    assert [args[1].nvars for args in calls["generalized_log_module"]] == [3]
    assert calls["intersect"] == []
    report = json.loads(out)
    assert report["ok"] and report["chi"] == 4
    assert report["claims"][-1]["claim"].startswith("derivations of f^h")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("chi", "x*y", "--vars", "x,y", "--dmax", "100000000000"),
         "degree bound 100000000000 is above 1000"),
        (("chi", "x*y", "--vars", "x,y", "--dmax", "1001"), "degree bound 1001 is above 1000"),
        (("verify", "--random", "2", "--dmax", "100000000000"), "is above 1000"),
    ],
    ids=["chi-dmax-huge", "chi-dmax-1001", "verify-dmax-huge"],
)
def test_oracle_degrees_above_the_cap_are_usage_errors(capsys, monkeypatch, argv, message):
    # the expansion once built a dict over every degree up to --dmax
    def unreachable(*args):
        raise AssertionError("the series was expanded past the oracle's cap")

    monkeypatch.setattr(hilbert, "hp_expand", unreachable)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("degree", ["13", "100000000000"], ids=["13", "huge"])
def test_harness_degrees_above_the_cap_are_usage_errors(capsys, monkeypatch, degree):
    # the harness once enumerated every monomial of every degree up to
    # --max-degree, although it rejects each instance of degree above 12
    def unreachable(*args):
        raise AssertionError("monomials were enumerated past the harness's cap")

    monkeypatch.setattr(harness, "_monomial_pools", unreachable)
    code, out, err = run(capsys, "verify", "--random", "2", "--max-degree", degree)
    assert (code, out) == (2, "")
    assert f"--max-degree must be >= 2 and <= 12, the cap on an instance's weighted " \
        f"degree, got {degree}" in err


@pytest.mark.parametrize("nvars", ["13", "100000000000"], ids=["13", "huge"])
def test_harness_variable_counts_above_the_cap_are_usage_errors(capsys, monkeypatch, nvars):
    # no instance is drawn: 25 in 60 variables take 17 s, and more run on
    def unreachable(*args):
        raise AssertionError("an instance was drawn past the harness's variable cap")

    monkeypatch.setattr(harness, "random_instance", unreachable)
    code, out, err = run(capsys, "verify", "--random", "2", "--max-vars", nvars)
    assert (code, out) == (2, "")
    assert f"--max-vars must be >= 2 and <= 12, got {nvars}" in err


def test_the_variable_cap_itself_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--random", "5", "--max-vars", "12",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    counts = [c["rhs"] for inst in report["instances"] for c in inst["claims"]
              if c["claim"] == "alternating rank sum equals the variable count"]
    assert len(counts) == 5 and max(counts) > 3


def test_degree_caps_themselves_are_accepted(capsys):
    code, out, _ = run(capsys, "chi", "x*y", "--vars", "x,y", "--dmax", "1000",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["claims"][-1]["lhs"]) == 1001
    code, _, _ = run(capsys, "verify", "--random", "2", "--max-degree", "12")
    assert code == 0
