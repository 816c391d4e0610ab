from __future__ import annotations

import json
from pathlib import Path

import pytest

import dihedral_doubles.cli as cli
from dihedral_doubles import get_context, weights
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


def _raise_for_one_weight(failing: str, error: Exception = AssertionError("head computation did not stabilize")):
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
    assert lines[1].split(maxsplit=1) == ["M2,3", "ERROR: head computation did not stabilize"]
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
        "error": "head computation did not stabilize",
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
    "simple_1_6_3_6": ["simple", "--index", "(1,6),(3,6)", "--weight", "Mx:0,0", "--full", "--output", "json"],
    "spherical_16": ["spherical", "--m", "16", "--output", "json"],
    "tensor_M2_3_Mx": ["tensor", "M2,3", "Mx:0,0", "--output", "json"],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_output_matches_its_pin(capsys, name):
    pin = Path(__file__).parent / "pins" / f"{name}.json"
    code, out, err = run(capsys, PINNED[name])
    assert (code, err) == (0, "")
    assert out == pin.read_text()
