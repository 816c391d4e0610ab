from __future__ import annotations

import json
from pathlib import Path

import pytest

import dihedral_doubles.cli as cli
from dihedral_doubles import get_context, theorems, weights
from dihedral_doubles.cyclotomic import CycMatrix, UnitMonomial
from dihedral_doubles.qdouble import build_verma


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--output", "json"])
    assert err == ""
    return code, json.loads(out)


def test_weights_table(capsys):
    code, out, err = run(capsys, ["weights"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 87
    assert lines[-1] == "86 weights, sum of squared dimensions 576"
    assert lines[0].startswith("e:chi1")


def test_weights_reports_a_catalog_member_that_breaks_a_group_relation(capsys, monkeypatch):
    # the context the command looks up; build a fresh catalog on it, restore the cached one after
    monkeypatch.setattr(get_context(12, unsafe=False), "_weight_cache", {})
    build = weights.build_weight

    def broken(ctx, label):
        module = build(ctx, label)
        if str(label) != "e:chi3":
            return module
        # y acting by a primitive m-th root of unity: x y is no longer an involution
        y_mat = UnitMonomial(ctx.field, [0], [1])
        return weights.group_module(ctx, module.gdeg, module.x_mat, y_mat)

    monkeypatch.setattr(weights, "build_weight", broken)
    code, out, err = run(capsys, ["weights"])
    assert code == 1
    assert out == ""
    assert err == "verification failure: catalog member e:chi3 breaks the group relations: (x y)^2 != 1\n"


def test_weights_json(capsys):
    code, obj = run_json(capsys, ["weights", "--m", "16"])
    assert code == 0
    assert obj["m"] == 16
    assert obj["count"] == 142
    assert obj["total_dim_sq"] == 1024
    assert obj["weights"][0] == {"label": "e:chi1", "dimension": 1, "class": "e"}


def test_tensor_table(capsys):
    code, out, err = run(capsys, ["tensor", "M2,3", "Mx:0,0"])
    assert code == 0
    assert out.strip() == "M2,3 x Mx:0,0 = Mx:0,1 + Mx:1,1"


def test_tensor_json(capsys):
    code, obj = run_json(capsys, ["tensor", "e:chi1", "e:rho3"])
    assert code == 0
    assert obj["dimension"] == 2
    assert obj["summands"] == [{"label": "e:rho3", "mult": 1}]


def test_simple_json_schema(capsys):
    code, obj = run_json(
        capsys, ["simple", "--index", "(2,3)", "--weight", "Mx:0,0", "--full"]
    )
    assert code == 0
    assert obj["dimension"] == 12
    assert obj["verma_dimension"] == 24
    assert obj["checks"] == {"relations": True, "theta": True}
    assert obj["graded_character"][0] == {
        "degree": 0,
        "summands": [{"label": "Mx:0,0", "mult": 1}],
    }
    assert [entry["degree"] for entry in obj["socle"]] == [-1, -2]


def test_simple_table_output(capsys):
    code, out, err = run(capsys, ["simple", "--index", "(2,3)", "--weight", "e:chi1"])
    assert code == 0
    assert "simple module of e:chi1 over (2,3) at m=12: dimension 1" in out
    assert "socle:" in out


def _flip_one_sign(mat):
    cols = [dict(col) for col in mat.sparse_columns()]
    j = next(j for j, col in enumerate(cols) if col)
    i = min(cols[j])
    cols[j][i] = -cols[j][i]
    return CycMatrix(mat.field, cols, mat.nrows)


def _standard_module_with_a_flipped_letter(ctx, index_set, label):
    module = build_verma(ctx, index_set, label)
    v_mats = {**module.v_mats, (0, 1): _flip_one_sign(module.v_mats[(0, 1)])}
    return weights.QDModule(
        ctx,
        index_set,
        module.zdeg,
        module.gdeg,
        module.x_mat,
        module.y_mat,
        v_mats,
        module.a_mats,
        weight=module.weight,
        kind=module.kind,
    )


@pytest.mark.parametrize("output", ["table", "json"])
def test_simple_exits_1_and_names_a_failed_relations_check(capsys, monkeypatch, output):
    argv = ["simple", "--index", "(2,3)", "--weight", "Mx:0,0", "--output", output]
    code, passing, _ = run(capsys, argv)
    assert code == 0
    monkeypatch.setattr(cli, "build_verma", _standard_module_with_a_flipped_letter)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert err == ""
    if output == "json":
        assert json.loads(out)["checks"] == {"relations": False, "theta": True}
    else:
        # the same table, with the failed check named under it
        assert out.endswith("\nMISMATCH: relations\n")
        assert "MISMATCH" not in passing


def _raising(error):
    def call(*args, **kwargs):
        raise error

    return call


@pytest.mark.parametrize("output", ["table", "json"])
@pytest.mark.parametrize(
    ("argv", "target", "error", "message"),
    [
        (
            ["simple", "--index", "(2,3)", "--weight", "Mx:0,0"],
            "build_verma",
            ZeroDivisionError("inverse of zero field element"),
            "inverse of zero field element",
        ),
        (["tensor", "M2,3", "Mx:0,0"], "decomposition_counts", ArithmeticError(), "ArithmeticError"),
    ],
    ids=["simple", "tensor"],
)
def test_an_arithmetic_error_is_a_verification_failure(capsys, monkeypatch, output, argv, target, error, message):
    monkeypatch.setattr(cli, target, _raising(error))
    code, out, err = run(capsys, argv + ["--output", output])
    assert code == 1
    assert out == ""
    assert err == f"verification failure: {message}\n"


@pytest.mark.parametrize("index", ["bogus", "((1,6))", "(a,b)", "(2,3.0)", "(1,6,3)"])
@pytest.mark.parametrize(
    "argv",
    [["verify", "--weights", "e:chi1", "--threads", "1"], ["simple", "--weight", "e:chi1"]],
    ids=["verify", "simple"],
)
def test_malformed_index_is_a_usage_error(capsys, argv, index):
    code, out, err = run(capsys, [*argv, "--index", index])
    assert (code, out) == (2, "")
    assert err == f"error: malformed index set: {index!r}\n"


@pytest.mark.parametrize("index", ["", "  "])
@pytest.mark.parametrize(
    "argv",
    [["verify", "--weights", "e:chi1", "--threads", "1"], ["simple", "--weight", "e:chi1"]],
    ids=["verify", "simple"],
)
def test_an_index_set_with_no_pair_is_a_usage_error(capsys, argv, index):
    code, out, err = run(capsys, [*argv, "--index", index])
    assert code == 2
    assert err == f"error: --index names no pair: {index!r}\n"
    assert out == ""


def test_unsupported_order_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["weights", "--m", "10"])
    assert code == 2
    assert "m must be >= 12 and divisible by 4" in err


@pytest.mark.parametrize("command", ["weights", "spherical"])
def test_an_order_outside_the_regime_names_the_cli_flag(capsys, command):
    code, out, err = run(capsys, [command, "--m", "13"])
    assert code == 2
    assert err == "error: m must be >= 12 and divisible by 4 (pass --unsafe-m to relax), got 13\n"
    assert out == ""


class _Built(Exception):
    """Raised by a patched `get_context` or `build_verma`: the run went past every refusal."""


def _raise_built(*args, **kwargs):
    raise _Built


_ORDER_ARGV = {
    "weights": ["weights"],
    "tensor": ["tensor", "e:chi1", "e:chi1"],
    "simple": ["simple", "--index", "(1,6)", "--weight", "e:chi1"],
    "verify": ["verify", "--index", "(1,6)", "--weights", "e:chi1", "--threads", "1"],
    "spherical": ["spherical"],
}


@pytest.mark.parametrize("unsafe", [[], ["--unsafe-m"]], ids=["", "unsafe"])
@pytest.mark.parametrize("command", list(_ORDER_ARGV))
def test_an_order_above_the_bound_is_refused_before_anything_is_built(capsys, monkeypatch, command, unsafe):
    monkeypatch.setattr(cli, "get_context", _raise_built)
    argv = _ORDER_ARGV[command]
    for m in (cli.MAX_M + 1, cli.MAX_M + 4, 1_000_000_000):
        code, out, err = run(capsys, [*argv, "--m", str(m), *unsafe])
        assert (code, out) == (2, "")
        assert err == f"error: m must be at most {cli.MAX_M}, the largest order that is built, got {m}\n"
    # the bound itself is an order of the proven regime, and the run goes on to build its context
    assert cli.MAX_M > 40 and cli.in_proven_regime(cli.MAX_M)
    with pytest.raises(_Built):
        cli.main([*argv, "--m", str(cli.MAX_M), *unsafe])


# copies of (2,3) at m = 12, and the dimension 4^|I| dim(lambda) of the standard module
_AT_THE_BOUND = [(8, "e:chi1", 65_536), (8, "yn:chi3", 65_536), (7, "M1,2", 32_768)]
_ABOVE_THE_BOUND = [(7, "Mx:0,0", 98_304), (8, "e:rho1", 131_072), (10, "e:chi1", 1_048_576)]


def _copies(pairs: int) -> str:
    return ",".join(["(2,3)"] * pairs)


def _size_message(pairs: int, weight: str, estimate: int) -> str:
    return (
        f"the standard module of {weight} over {pairs} pairs would have {estimate:,} basis vectors, "
        f"more than the {cli.MAX_STANDARD_DIM:,} that are built"
    )


def test_the_standard_module_bound_sits_between_the_cases_built_and_refused():
    # the five-pair case that CI verifies is built
    assert 6_144 <= max(estimate for _, _, estimate in _AT_THE_BOUND) == cli.MAX_STANDARD_DIM
    assert all(estimate > cli.MAX_STANDARD_DIM for _, _, estimate in _ABOVE_THE_BOUND)
    for pairs, weight, estimate in _AT_THE_BOUND + _ABOVE_THE_BOUND:
        assert 4**pairs * cli.parse_weight_label(weight).dimension(6) == estimate


@pytest.mark.parametrize("pairs, weight, estimate", _ABOVE_THE_BOUND)
def test_simple_refuses_a_standard_module_above_the_bound_before_anything_is_built(
    capsys, monkeypatch, pairs, weight, estimate
):
    monkeypatch.setattr(cli, "get_context", _raise_built)
    monkeypatch.setattr(cli, "build_verma", _raise_built)
    code, out, err = run(capsys, ["simple", "--index", _copies(pairs), "--weight", weight])
    assert (code, out) == (2, "")
    assert err == f"error: {_size_message(pairs, weight, estimate)}\n"


@pytest.mark.parametrize("pairs, weight, estimate", _AT_THE_BOUND)
def test_simple_builds_a_standard_module_at_the_bound(monkeypatch, pairs, weight, estimate):
    monkeypatch.setattr(cli, "get_context", _raise_built)
    with pytest.raises(_Built):
        cli.main(["simple", "--index", _copies(pairs), "--weight", weight])


def test_verify_reports_a_standard_module_above_the_bound_as_its_case_error(capsys, monkeypatch):
    # seven copies of (2,3): e:chi1 and e:rho1 are within the bound and are handed to verify_simple,
    # whose standard modules are not built here; Mx:0,0 is refused and never handed over
    built = []

    def build_verma(ctx, index_set, label):
        built.append(str(label))
        raise AssertionError("standard module not built in this test")

    monkeypatch.setattr(theorems, "build_verma", build_verma)
    argv = ["verify", "--index", _copies(7), "--weights", "e:chi1, Mx:0,0, e:rho1", "--threads", "1"]
    refusal = _size_message(7, "Mx:0,0", 98_304)
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "e:chi1     ERROR: standard module not built in this test",
        f"Mx:0,0     ERROR: {refusal}",
        "e:rho1     ERROR: standard module not built in this test",
        "1 refused as too large to build: Mx:0,0",
        "2 mismatches: e:chi1, e:rho1",
    ]
    assert "Mx:0,0" not in built and {"e:chi1", "e:rho1"} <= set(built)

    code, obj = run_json(capsys, argv)
    assert code == 2
    assert (obj["ok"], obj["failures"]) == (False, ["e:chi1", "Mx:0,0", "e:rho1"])
    assert obj["cases"][1] == {"m": 12, "index_set": [[2, 3]] * 7, "weight": "Mx:0,0", "ok": False, "error": refusal}


def test_verify_with_every_case_refused_runs_none(capsys, monkeypatch):
    monkeypatch.setattr(theorems, "build_verma", _raise_built)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    code, out, err = run(capsys, ["verify", "--index", _copies(8), "--weights", "e:rho1, Mx:0,0"])
    assert (code, err) == (2, "")
    assert out.splitlines()[-1] == "2 refused as too large to build: e:rho1, Mx:0,0"
    assert _RecordingExecutor.sizes == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spherical", "--index", _copies(9)], _size_message(9, "e:chi1", 262_144)),
        (
            ["verify", "--index", _copies(9), "--weights", "e:chi1", "--spherical"],
            "--spherical: " + _size_message(9, "e:chi1", 262_144),
        ),
        (
            ["verify", "--index", _copies(7), "--weights", "e:chi1", "--tensor-rigid"],
            "--tensor-rigid: " + _size_message(7, "Mx:0,0", 98_304),
        ),
    ],
    ids=["spherical", "verify --spherical", "verify --tensor-rigid"],
)
def test_a_pivot_or_tensor_check_above_the_bound_is_refused_before_any_case_runs(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "build_verma", _raise_built)
    monkeypatch.setattr(theorems, "build_verma", _raise_built)
    code, out, err = run(capsys, [*argv, "--threads", "1"] if argv[0] == "verify" else argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_subset(capsys):
    code, out, err = run(
        capsys,
        ["verify", "--index", "(2,3)", "--weights", "e:chi1,M2,3", "--threads", "1"],
    )
    assert code == 0
    assert "all 2 cases verified" in out


def test_verify_half_turn_pair_reflection_weights(capsys):
    code, out, err = run(
        capsys,
        ["verify", "--index", "(6,1)", "--weights", "Mx:0,1 Mxy:1,1", "--threads", "1"],
    )
    assert code == 0
    assert "all 2 cases verified" in out


def test_verify_json_reports_cases(capsys):
    code, obj = run_json(
        capsys,
        ["verify", "--index", "(2,3)", "--weights", "e:chi1", "--threads", "1"],
    )
    assert code == 0
    assert obj["ok"] is True
    assert obj["failures"] == []
    assert obj["cases"][0]["weight"] == "e:chi1"
    assert obj["cases"][0]["ok"] is True


def test_verify_checks_the_socle_formula_on_two_pairs(capsys):
    code, obj = run_json(
        capsys,
        ["verify", "--index", "(1,6),(3,6)", "--weights", "e:chi1, Mx:0,0", "--threads", "1"],
    )
    assert code == 0
    assert [case["weight"] for case in obj["cases"]] == ["e:chi1", "Mx:0,0"]
    assert all(case["checks"]["socle_formula"] is True for case in obj["cases"])


def test_verify_flags_spherical_and_tensor(capsys):
    code, out, err = run(
        capsys,
        [
            "verify",
            "--index",
            "(2,3)",
            "--weights",
            "e:chi1",
            "--threads",
            "1",
            "--spherical",
            "--tensor-rigid",
        ],
    )
    assert code == 0
    assert "spherical" in out
    assert "rigid tensor checks:" in out


def test_weight_list_tokenizer_handles_commas_in_labels(capsys):
    code, obj = run_json(
        capsys,
        ["verify", "--index", "(2,3)", "--weights", "M2,3,Mx:0,0", "--threads", "1"],
    )
    assert code == 0
    assert [case["weight"] for case in obj["cases"]] == ["M2,3", "Mx:0,0"]


def test_weight_list_rejects_garbage(capsys):
    code, out, err = run(
        capsys, ["verify", "--index", "(2,3)", "--weights", "e:chi1,junk"]
    )
    assert code == 2
    assert "malformed weight list" in err


class _FailingReport:
    ok = False

    @staticmethod
    def to_json_obj():
        return {"ok": False}


def test_verify_exit_code_on_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_simple", lambda *a, **kw: _FailingReport())
    code, out, err = run(
        capsys,
        ["verify", "--index", "(2,3)", "--weights", "e:chi1", "--threads", "1"],
    )
    assert code == 1
    assert "MISMATCH" in out


class _SocleAndRecursionReport:
    ok = False

    @staticmethod
    def to_json_obj():
        return {
            "ok": False,
            "checks": {
                "relations": True,
                "head_formula": True,
                "socle_formula": False,
                "recursion": [{"pair": [1, 6], "ok": False}, {"pair": [3, 6], "ok": True}],
                "qdim_pattern": None,
            },
        }


def test_verify_table_names_the_failing_checks(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_simple", lambda *a, **kw: _SocleAndRecursionReport())
    code, out, err = run(
        capsys,
        ["verify", "--index", "(2,3)", "--weights", "e:chi1", "--threads", "1"],
    )
    assert code == 1
    assert out.splitlines()[0].split(maxsplit=1) == ["e:chi1", "MISMATCH: socle_formula, recursion (1,6)"]


@pytest.mark.parametrize("weights", ["", " , ;"])
def test_verify_rejects_an_empty_weight_list(capsys, weights):
    code, out, err = run(capsys, ["verify", "--index", "(2,3)", "--weights", weights, "--threads", "1"])
    assert code == 2
    assert err.startswith("error: --weights names no weight")
    assert out == ""


def test_verify_rejects_a_weight_outside_the_catalog_before_any_case_runs(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "verify_simple", lambda ctx, index_set, label: ran.append(label))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    argv = ["verify", "--index", "(1,6),(3,6),(5,6)", "--weights", "Mx:0,0, M6,0", "--threads", "2"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err == "error: --weights names weights not in the catalog for m=12: M6,0\n"
    assert out == ""
    assert ran == [] and _RecordingExecutor.sizes == []


def _raise_for_one_weight(failing: str, error: Exception = AssertionError("bottom layer is not a single multiplicity-one weight: e:chi2 x2")):
    real = cli.verify_simple

    def verify(ctx, index_set, label):
        if str(label) == failing:
            raise error
        return real(ctx, index_set, label)

    return verify


def test_verify_reports_a_failing_case_and_the_others(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_simple", _raise_for_one_weight("M2,3"))
    argv = ["verify", "--index", "(2,3)", "--weights", "e:chi1,M2,3,Mx:0,0", "--threads", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].split() == ["e:chi1", "ok"]
    assert lines[1].split(maxsplit=1) == ["M2,3", "ERROR: bottom layer is not a single multiplicity-one weight: e:chi2 x2"]
    assert lines[2].split() == ["Mx:0,0", "ok"]
    assert "MISMATCH" not in out

    code, obj = run_json(capsys, argv)
    assert code == 1
    assert obj["ok"] is False
    assert obj["failures"] == ["M2,3"]
    failed = obj["cases"][1]
    assert failed == {
        "m": 12,
        "index_set": [[2, 3]],
        "weight": "M2,3",
        "ok": False,
        "error": "bottom layer is not a single multiplicity-one weight: e:chi2 x2",
    }
    for case in (obj["cases"][0], obj["cases"][2]):
        assert case["ok"] is True
        assert "error" not in case


def test_verify_reports_an_arithmetic_error_per_case(capsys, monkeypatch):
    error = ArithmeticError("volume twist of M2,3 is not a single weight")
    monkeypatch.setattr(cli, "verify_simple", _raise_for_one_weight("M2,3", error))
    argv = ["verify", "--index", "(2,3)", "--weights", "e:chi1,M2,3", "--threads", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].split() == ["e:chi1", "ok"]
    assert lines[1].split(maxsplit=1) == ["M2,3", "ERROR: volume twist of M2,3 is not a single weight"]

    code, obj = run_json(capsys, argv)
    assert code == 1
    assert obj["failures"] == ["M2,3"]
    assert obj["cases"][0]["ok"] is True
    assert obj["cases"][1]["error"] == "volume twist of M2,3 is not a single weight"


@pytest.mark.parametrize(
    "error", [AssertionError("tensor splits as e:chi2"), ArithmeticError()], ids=["assertion", "arithmetic"]
)
def test_verify_reports_each_rigid_tensor_failure_with_its_message(capsys, monkeypatch, error):
    def failing_for_one_pair(ctx, index_set, mu, lam):
        if (str(mu), str(lam)) == ("e:chi1", "Mx:0,0"):
            raise error

    monkeypatch.setattr(cli, "verify_rigid_tensor", failing_for_one_pair)
    message = str(error) or type(error).__name__
    argv = ["verify", "--index", "(2,3)", "--weights", "e:chi1", "--threads", "1", "--tensor-rigid"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert f"tensor e:chi1 x Mx:0,0: MISMATCH: {message}" in out.splitlines()
    assert "rigid tensor checks:" not in out

    code, obj = run_json(capsys, argv)
    assert code == 1
    assert obj["failures"] == ["tensor e:chi1 x Mx:0,0"]
    assert obj["tensor_rigid"] == [{"mu": "e:chi1", "lam": "Mx:0,0", "error": message}]


def test_verify_json_lists_rigid_tensor_failures_only_when_asked(capsys):
    argv = ["verify", "--index", "(2,3)", "--weights", "e:chi1", "--threads", "1"]
    code, obj = run_json(capsys, argv)
    assert "tensor_rigid" not in obj
    code, obj = run_json(capsys, argv + ["--tensor-rigid"])
    assert code == 0
    assert obj["tensor_rigid"] == []


# Characterisation of the cases that fail outside the proven regime, for
# ``verify --m 6 --unsafe-m --index "(1,3)"``: weight -> failed checks.
_M6_FAILURES = {
    weight: ["qdim_pattern"]
    for weight in (
        "e:chi3 e:chi4 e:rho1 e:rho2 yn:chi1 yn:chi2 yn:rho1 yn:rho2 "
        "M1,0 M1,1 M1,2 M1,4 M1,5 M2,1 M2,2 M2,3 M2,4 M2,5 "
        "Mx:0,0 Mx:0,1 Mx:1,0 Mx:1,1 Mxy:0,0 Mxy:0,1 Mxy:1,0 Mxy:1,1"
    ).split()
}


def test_verify_outside_the_proven_regime_says_so(capsys):
    argv = ["verify", "--m", "6", "--unsafe-m", "--index", "(1,3)", "--threads", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert "MISMATCH" not in out
    statuses = dict(line.split(maxsplit=1) for line in out.splitlines()[:32])
    assert len(statuses) == 32
    failing = {weight: status for weight, status in statuses.items() if status != "ok"}
    assert failing == {weight: "OUTSIDE REGIME: " + ", ".join(checks) for weight, checks in _M6_FAILURES.items()}
    assert out.splitlines()[-1] == "26 failures outside the proven regime (m=6): " + ", ".join(_M6_FAILURES)

    code, obj = run_json(capsys, argv)
    assert code == 1
    assert obj["failures"] == list(_M6_FAILURES)
    for case in obj["cases"]:
        if case["ok"]:
            assert "regime" not in case
        else:
            assert case["regime"] == "unproven"
            assert cli._failed_checks(case) == _M6_FAILURES[case["weight"]]


def test_verify_inside_the_proven_regime_reports_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_simple", lambda *a, **kw: _FailingReport())
    argv = ["verify", "--m", "12", "--unsafe-m", "--index", "(2,3)", "--weights", "e:chi1", "--threads", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out.splitlines()[0].split() == ["e:chi1", "MISMATCH"]
    assert "regime" not in out
    code, obj = run_json(capsys, argv)
    assert "regime" not in obj["cases"][0]


class _RecordingExecutor:
    """Stands in for the process pool: records its size and runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


def test_verify_threads_capped_at_case_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    code, out, err = run(
        capsys, ["verify", "--index", "(2,3)", "--weights", "e:chi1,M2,3", "--threads", "5000"]
    )
    assert code == 0
    assert "all 2 cases verified" in out
    assert _RecordingExecutor.sizes == [2]
    # one case needs no pool at all
    code, out, err = run(
        capsys, ["verify", "--index", "(2,3)", "--weights", "e:chi1", "--threads", "5000"]
    )
    assert code == 0
    assert _RecordingExecutor.sizes == [2]


def test_verify_negative_threads_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    code, out, err = run(capsys, ["verify", "--index", "(2,3)", "--threads", "-1"])
    assert code == 2
    assert err.startswith("error: --threads must be")
    assert out == ""
    assert _RecordingExecutor.sizes == []


def test_spherical_all_singletons(capsys):
    code, out, err = run(capsys, ["spherical"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all("spherical" in line for line in lines)


def test_spherical_with_an_empty_index_takes_every_single_pair(capsys):
    for text in ("", " "):
        assert run(capsys, ["spherical", "--index", text]) == run(capsys, ["spherical"])


def test_spherical_one_index_json(capsys):
    code, obj = run_json(capsys, ["spherical", "--index", "(2,4)", "--m", "16"])
    assert code == 0
    row = obj["index_sets"][0]
    assert row["spherical"] is False
    assert row["consistent"] is True
    assert set(row["pivots"]) == {"1", "2", "3", "4"}
    assert not any(row["pivots"].values())


# Each command's JSON stdout, recorded in tests/pins; CI diffs the installed console script against the same files.
PINNED = {
    "verify_2_3": [
        "verify", "--index", "(2,3)", "--weights", "e:chi1, e:chi3, e:rho1, yn:chi1, yn:rho1, M2,3, Mx:0,0, Mxy:1,1",
        "--spherical", "--output", "json", "--threads", "1",
    ],
    "verify_1_6_3_6": [
        "verify", "--index", "(1,6),(3,6)", "--weights", "e:chi1, Mx:0,0", "--output", "json", "--threads", "1",
    ],
    # the smaller standard module over (1,6) is simple for each of these weights, so the last pair's recursion
    # step is the standard module's own; for those of verify_1_6_3_6 it is not
    "verify_1_6_3_6_simple_smaller": [
        "verify", "--index", "(1,6),(3,6)", "--weights", "e:rho1, M1,2, e:chi3", "--output", "json", "--threads", "1",
    ],
    # over three pairs the steps at (1,6) and (3,6) of e:rho1 and e:chi3, and the one at (3,6) of M1,2, induce a
    # simple smaller standard module that is not the last pair's, and a basis change carries it onto the standard
    # module; the step at (5,6) of e:rho1 and e:chi3 is the standard module's own
    "verify_1_6_3_6_5_6_simple_smaller": [
        "verify", "--index", "(1,6),(3,6),(5,6)", "--weights", "e:rho1, M1,2, e:chi3", "--output", "json",
        "--threads", "1",
    ],
    "simple_1_6_3_6": ["simple", "--index", "(1,6),(3,6)", "--weight", "Mx:0,0", "--full", "--output", "json"],
    # a 32-dimensional simple whose socle spreads over degrees -2 to -6
    "simple_1_6_3_6_5_6": ["simple", "--index", "(1,6),(3,6),(5,6)", "--weight", "M1,2", "--full", "--output", "json"],
    # a simple standard module: its own socle, and its character is the simple's
    "simple_1_6_3_6_5_6_rho1": [
        "simple", "--index", "(1,6),(3,6),(5,6)", "--weight", "e:rho1", "--full", "--output", "json",
    ],
    # two reflection pairs at m = 16: the recursion certifies M1,6's step at (2,4) by a basis change, and the
    # socles of Mx:0,0 and Mxy:1,1 span the bottom layer of modules on which y has 8-cycles
    "verify_16_2_4_2_12": [
        "verify", "--m", "16", "--index", "(2,4),(2,12)", "--weights", "e:chi1, M1,6, Mx:0,0, Mxy:1,1",
        "--output", "json", "--threads", "1",
    ],
    # 9 rigid weights, each tensored with 6 partners, over two pairs: the rigid tensor check on every product
    "verify_1_6_3_6_tensor_rigid": [
        "verify", "--index", "(1,6),(3,6)", "--weights", "e:chi1", "--spherical", "--tensor-rigid", "--output", "json",
        "--threads", "1",
    ],
    "spherical_16": ["spherical", "--m", "16", "--output", "json"],
    "tensor_M2_3_Mx": ["tensor", "M2,3", "Mx:0,0", "--output", "json"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_output_matches_its_pin(capsys, name):
    pin = Path(__file__).parent / "pins" / f"{name}.json"
    code, out, err = run(capsys, PINNED[name])
    assert (code, err) == (0, "")
    assert out == pin.read_text()


@pytest.mark.parametrize(("name", "socles"), [("simple_1_6_3_6", 1), ("simple_1_6_3_6_5_6_rho1", 0)])
def test_simple_scans_for_a_socle_only_when_the_standard_module_is_not_simple(capsys, monkeypatch, name, socles):
    # head returns the standard module itself exactly when it is simple, and then it is its own socle: socle
    # spans no bottom layer for it.  The command shares verify_simple's stage, theorems._head_and_socle
    spanned = []

    def recorded(module, _real=theorems.socle):
        spanned.append(module)
        return _real(module)

    monkeypatch.setattr(theorems, "socle", recorded)
    code, _, err = run(capsys, PINNED[name])
    assert (code, err) == (0, "")
    assert len(spanned) == socles
