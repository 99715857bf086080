import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from smoothlab.arith import SIEVE_MAX
from smoothlab.cli import main
from smoothlab.orders import SequenceSpec
from smoothlab.smooth import term_prime_log_sum

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "output-schema.json").read_text()
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    jsonschema.validate(doc, SCHEMA)
    return doc


class TestMembershipCommand:
    def test_example(self, runner):
        doc = invoke_json(runner, ["membership", "--base", "2", "--n", "6", "--K", "1", "--c", "6/5"])
        assert doc["results"][0]["member"] is True
        assert doc["parameters"]["c"] == "6/5"

    def test_decimal_c_parsed_exactly(self, runner):
        doc = invoke_json(runner, ["membership", "--base", "2", "--n", "6", "--K", "1", "--c", "1.2"])
        assert doc["parameters"]["c"] == "6/5"

    def test_theta_cutoff(self, runner):
        doc = invoke_json(
            runner, ["membership", "--base", "2", "--n", "9", "--theta", "3/2", "--c", "6/5"]
        )
        assert doc["results"][0]["cutoff_y"] == 27

    def test_usage_error_both_cutoffs(self, runner):
        result = runner.invoke(main, ["membership", "--base", "2", "--n", "6", "--K", "1",
                                      "--theta", "1/2", "--c", "6/5"])
        assert result.exit_code == 2

    def test_domain_error_c(self, runner):
        result = runner.invoke(main, ["membership", "--base", "2", "--n", "6", "--K", "1",
                                      "--c", "1"])
        assert result.exit_code == 2


class TestEnumerateCommand:
    def test_json(self, runner):
        doc = invoke_json(runner, ["enumerate", "--base", "2", "--K", "1", "--c", "6/5",
                                   "--N", "10"])
        assert [r["n"] for r in doc["results"]] == [4, 6, 8, 9]

    def test_csv(self, runner):
        result = runner.invoke(main, ["enumerate", "--base", "2", "--K", "1", "--c", "6/5",
                                      "--N", "10", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n"
        assert lines[1:] == ["4", "6", "8", "9"]

    def test_threads_byte_identical(self, runner):
        # --threads is ignored by every subcommand, not only enumerate
        for command in (
            ["membership", "--base", "2", "--n", "6", "--K", "1", "--c", "6/5"],
            ["enumerate", "--base", "3", "--K", "2", "--c", "3/2", "--N", "50"],
            ["svalue", "--base", "2", "--n", "36", "--K", "1"],
            ["snk", "--base", "2", "--n", "12", "--K", "1"],
            ["window", "--base", "3", "--N", "40", "--K", "1", "--c", "6/5"],
            ["dyadic", "--base", "3", "--N", "100", "--K", "1"],
            ["bounds", "--N", "64", "--check-base", "2", "--K", "1", "--check-c", "6/5"],
            ["abc", "--base", "2", "--n", "6", "--K", "1", "--c", "6/5"],
            ["binomial", "--N", "20"],
        ):
            one = runner.invoke(main, command + ["--threads", "1"])
            eight = runner.invoke(main, command + ["--threads", "8"])
            assert one.exit_code == eight.exit_code == 0, command
            assert one.output == eight.output, command


class TestSvalueCommand:
    def test_materialize(self, runner):
        doc = invoke_json(runner, ["svalue", "--base", "2", "--n", "6", "--y", "6",
                                   "--materialize"])
        row = doc["results"][0]
        assert row["factors"] == [[3, 2]]
        assert row["exact_value"] == "9"

    def test_csv_factors(self, runner):
        result = runner.invoke(main, ["svalue", "--base", "2", "--n", "36", "--K", "1",
                                      "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == (
            "n,cutoff_y,factors,log_value\n"
            "36,36,3^3;5^1;7^1;13^1;19^1,12.3605732641\n"
        )


class TestSnkCommand:
    def test_report(self, runner):
        doc = invoke_json(runner, ["snk", "--base", "2", "--n", "6", "--K", "1"])
        row = doc["results"][0]
        assert row["prime_count"] == 1
        assert row["bound"] == 8
        assert row["bound_holds"] is True
        assert row["records"] == [[3, 2, 1]]

    def test_csv_records(self, runner):
        result = runner.invoke(main, ["snk", "--base", "2", "--n", "12", "--K", "1",
                                      "--format", "csv"])
        assert result.exit_code == 0
        assert result.output == (
            "n,prime_count,log_sum,normalized,bound,bound_holds,records\n"
            "12,3,4.65396035016,1.34348263048,15,true,3:2:1;5:4:1;7:3:1\n"
        )

    def test_one_pass_log_sum(self, runner):
        doc = invoke_json(runner, ["snk", "--base", "3", "--n", "360", "--K", "3/2"])
        expected = term_prime_log_sum(SequenceSpec(3), Fraction(3, 2), 360)
        assert doc["results"][0]["log_sum"] == expected


@pytest.mark.parametrize("command", [
    ["snk", "--base", "2", "--n", "6"],
    ["window", "--base", "2", "--N", "10"],
    ["dyadic", "--base", "2", "--N", "10"],
])
def test_zero_K_is_a_domain_error(runner, command):
    result = runner.invoke(main, command + ["--K", "0"])
    assert result.exit_code == 2
    assert result.output == "error: K must be positive\n"


class TestWindowCommand:
    def test_report(self, runner):
        doc = invoke_json(runner, ["window", "--base", "2", "--N", "4", "--K", "1"])
        row = doc["results"][0]
        assert row["log_Q"] == pytest.approx(1.0986122886681098)
        assert row["agreement_delta"] < 1e-12


class TestDyadicCommand:
    def test_report(self, runner):
        doc = invoke_json(runner, ["dyadic", "--base", "2", "--N", "8", "--K", "1",
                                   "--y", "1.0"])
        row = doc["results"][0]
        assert row["Q1_size"] + row["Q2_size"] == 3

    @pytest.mark.parametrize("y", ["nan", "inf"])
    def test_non_finite_y_rejected(self, runner, y):
        result = runner.invoke(main, ["dyadic", "--base", "2", "--N", "8", "--K", "1", "--y", y])
        assert result.exit_code == 2
        assert "NaN" not in result.output and "Infinity" not in result.output


class TestBoundsCommand:
    def test_example(self, runner):
        doc = invoke_json(runner, ["bounds", "--N", "1000000"])
        row = doc["results"][0]
        assert row["density_bound"] == pytest.approx(966835.0902104966, rel=1e-9)

    def test_domain_error(self, runner):
        result = runner.invoke(main, ["bounds", "--N", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("precision", ["double", "high"])
    def test_overflowing_N(self, runner, precision):
        result = runner.invoke(main, ["bounds", "--N", str(10**400), "--precision", precision])
        assert result.exit_code == 2
        assert "does not fit a double" in result.output

    def test_density_table(self, runner):
        doc = invoke_json(runner, ["bounds", "--N", "64", "--check-base", "2",
                                   "--K", "1", "--check-c", "6/5"])
        assert len(doc["results"]) == 1 + 6  # summary row + ceil(log2 64) windows

    def test_density_table_csv_keeps_every_column(self, runner):
        result = runner.invoke(main, ["bounds", "--N", "10", "--check-base", "2",
                                      "--check-c", "1.2", "--K", "1", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "N,default_y,density_bound,window_upper,member_count,ratio",
            "10,1.01785487203,9.824583322,,,",
            ",,9.824583322,10,3,0.30535646161",
            ",,4.89276945808,5,1,0.204383224791",
            ",,,2.5,0,",
            ",,,1.25,0,",
        ]


class TestPowerCutoffCommand:
    def test_theta_near_two(self, runner):
        # 50^(1999/1000) = 2490.2...; 50^1999 overflows a double
        doc = invoke_json(runner, ["membership", "--base", "2", "--n", "50",
                                   "--theta", "1999/1000", "--c", "1.01"])
        assert doc["results"][0]["cutoff_y"] == 2490


class TestAbcCommand:
    def test_example(self, runner):
        doc = invoke_json(runner, ["abc", "--base", "2", "--n", "6", "--K", "1",
                                   "--c", "6/5"])
        row = doc["results"][0]
        assert row["rad_ABC"] == "42"
        assert row["quality"] == pytest.approx(1.1126941404922133)


class TestFactoringFailureExit:
    def test_exit_code_3(self, runner, monkeypatch):
        from smoothlab.arith import Factorization, FactorizationError
        import smoothlab.cli as cli

        def boom(*args, **kwargs):
            raise FactorizationError("rho budget exhausted", Factorization(), 91)

        monkeypatch.setattr(cli, "abc_quality", boom)
        result = runner.invoke(main, ["abc", "--base", "2", "--n", "6", "--K", "1",
                                      "--c", "6/5"])
        assert result.exit_code == 3


class TestBinomialCommand:
    def test_single(self, runner):
        doc = invoke_json(runner, ["binomial", "--n", "5"])
        assert doc["results"][0]["member"] is True

    def test_range_csv(self, runner):
        result = runner.invoke(main, ["binomial", "--N", "3", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("n,")
        assert len(lines) == 4


class TestOutFile:
    def test_out_path(self, runner, tmp_path):
        out = tmp_path / "result.json"
        result = runner.invoke(main, ["bounds", "--N", "100", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SCHEMA)


@pytest.mark.parametrize("command, cutoff", [
    (["svalue", "--base", "2", "--n", "10", "--y", "10000000000"], 10**10),
    (["membership", "--base", "2", "--n", "1000000000000", "--K", "1", "--c", "1.01"], 10**12),
    (["enumerate", "--base", "2", "--theta", "19/10", "--N", "1000000", "--c", "1.01"],
     251188643150),
    (["dyadic", "--base", "2", "--N", "1000000000", "--K", "1"], 10**9),
])
def test_cutoff_above_sieve_limit_is_a_domain_error(runner, command, cutoff):
    result = runner.invoke(main, command)
    assert result.exit_code == 2
    assert result.output == (
        f"error: prime cutoff {cutoff} exceeds the sieve limit SIEVE_MAX = {SIEVE_MAX}\n"
    )
