import functools
import importlib.util
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from smoothlab.arith import SIEVE_MAX, valuation
from smoothlab.cli import main
from smoothlab.orders import SequenceSpec
from smoothlab.smooth import POWER_CUTOFF_MAX_BITS

from oracles import records_by_enumeration, term_prime_log_sum

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "output-schema.json").read_text()
)
DATA = Path(__file__).resolve().parent / "data"


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

    def test_huge_n_is_trial_divided_only_below_y(self, runner):
        # n = 10^45 at y = 10^5; threshold, margin and member are left
        # out, since n * ln c is still taken from float(c) = 1.0 here
        # (tests/test_smooth.py's strict xfail)
        start = time.perf_counter()
        doc = invoke_json(runner, ["membership", "--base", "2", "--n", str(10**45),
                                   "--K", f"1/{10**40}", "--c", "1." + "0" * 39 + "1"])
        assert time.perf_counter() - start < 1.0
        row = doc["results"][0]
        assert (row["cutoff_y"], row["log_s"], row["exact_tiebreak_used"]) == (
            10**5, 278.97636216302317, False)


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

    def test_scan_stops_at_the_term(self, runner):
        # no prime above 2^10 - 1 = 1023 can divide it, so the primes up
        # to 10^8 are never sieved (that took 5-7 s and 375 MB)
        start = time.perf_counter()
        result = runner.invoke(main, ["svalue", "--base", "2", "--n", "10", "--y", "100000000",
                                      "--format", "csv"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        assert result.output == (
            "n,cutoff_y,factors,log_value\n"
            "10,100000000,3^1;11^1;31^1,6.93049476595\n"
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


# o_3 = v_3(a - 1) = 300 for a = 1 + 3^300, and o_2 = 300 for 1 + 2^300
@pytest.mark.parametrize("a, p", [(1 + 3**300, 3), (1 + 2**300, 2)], ids=["1+3^300", "1+2^300"])
class TestLargeInitialValuation:
    def test_snk_records(self, runner, a, p):
        doc = invoke_json(runner, ["snk", "--base", str(a), "--n", "12", "--K", "2"])
        expected = [[q, ell, o] for q, ell, o in records_by_enumeration(a, 24) if 12 % ell == 0]
        assert [p, 1, 300] in expected
        assert doc["results"][0]["records"] == expected

    def test_dyadic_bins(self, runner, a, p):
        doc = invoke_json(runner, ["dyadic", "--base", str(a), "--N", "40", "--K", "1"])
        row = doc["results"][0]
        ratios = [o * math.log(q) / ell for q, ell, o in records_by_enumeration(a, 40)]
        small = [r for r in ratios if r < 1 / row["y"]]
        assert (row["Q1_size"], row["Q2_size"]) == (len(small), len(ratios) - len(small))
        assert row["S1"] == 40 * sum(small)

    def test_window_by_prime(self, runner, a, p):
        doc = invoke_json(runner, ["window", "--base", str(a), "--N", "12", "--K", "1"])
        totals = [(q, sum(valuation(a**n - 1, q) for n in range(7, 13)))
                  for q, _, _ in records_by_enumeration(a, 12)]
        assert doc["results"][0]["log_Q_by_prime"] == math.fsum(t * math.log(q) for q, t in totals)


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

    @pytest.mark.parametrize("precision", ["double", "high"])
    def test_largest_parsed_N(self, runner, precision):
        # 4300 digits is as long an integer as Python parses by default;
        # the 50-digit mode takes its logarithms, and N times the bound's
        # factor still overflows a double
        result = runner.invoke(main, ["bounds", "--N", "9" * 4300, "--precision", precision])
        assert result.exit_code == 2
        assert "does not fit a double" in result.output
        result = runner.invoke(main, ["bounds", "--N", "9" * 4301, "--precision", precision])
        assert result.exit_code == 2

    def test_density_table(self, runner):
        doc = invoke_json(runner, ["bounds", "--N", "64", "--check-base", "2",
                                   "--K", "1", "--check-c", "6/5"])
        assert len(doc["results"]) == 1 + 6  # summary row + ceil(log2 64) windows

    @pytest.mark.parametrize("option", [["--check-c", "1.01", "--K", "1"], ["--K", "1"],
                                        ["--theta", "1/2"], ["--check-c", "1.01"]])
    def test_density_options_need_check_base(self, runner, option):
        result = runner.invoke(main, ["bounds", "--N", "10", *option])
        assert result.exit_code == 2
        assert "--check-c, --K and --theta apply only with --check-base" in result.output

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

    def test_oversized_power_is_a_domain_error(self, runner):
        # 1000^1999999 would have some 2*10^7 bits; building it took minutes
        start = time.perf_counter()
        result = runner.invoke(main, ["svalue", "--base", "2", "--n", "1000",
                                      "--theta", "1999999/1000000"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.output == (
            "error: n**1999999 for the cutoff floor(n ** 1999999/1000000) at n = 1000 has up to"
            f" 19999990 bits, above POWER_CUTOFF_MAX_BITS = {POWER_CUTOFF_MAX_BITS}\n"
        )


class TestAbcCommand:
    def test_example(self, runner):
        doc = invoke_json(runner, ["abc", "--base", "2", "--n", "6", "--K", "1",
                                   "--c", "6/5"])
        row = doc["results"][0]
        assert row["rad_ABC"] == "42"
        assert row["quality"] == pytest.approx(1.1126941404922133)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pinned_output(self, runner, fmt):
        # the benchmark's anchor term, byte for byte as factoring 2^600 - 1
        # whole printed it
        result = runner.invoke(main, ["abc", "--base", "2", "--n", "600", "--K", "1",
                                      "--c", "101/100", "--format", fmt])
        assert result.exit_code == 0
        assert result.output == (DATA / f"abc_base2_n600.{fmt}").read_text()

    def test_oversized_term_is_a_domain_error(self, runner):
        # abc built 2^(10^30) - 1 first, which at best ended in a
        # MemoryError traceback with exit 1
        start = time.perf_counter()
        result = runner.invoke(main, ["abc", "--base", "2", "--n", str(10**30), "--K", "1",
                                      "--c", "3/2"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.output == (
            f"error: the term 2^{10**30} - 1 has up to {2 * 10**30} bits,"
            f" above POWER_CUTOFF_MAX_BITS = {POWER_CUTOFF_MAX_BITS}\n"
        )


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

    def test_cofactor_is_the_failing_piece(self, runner, monkeypatch):
        # 3^65 - 1 fails on its last cyclotomic piece, Phi_65(3), and
        # names only that piece's unfactored part
        from smoothlab import abc_triples
        from smoothlab.arith import factorize

        monkeypatch.setattr(abc_triples, "factorize", functools.partial(factorize, budget=100))
        result = runner.invoke(main, ["abc", "--base", "3", "--n", "65", "--K", "1",
                                      "--c", "3/2"])
        assert result.exit_code == 3
        cofactor = 3701101 * 110133112994711
        assert result.output == (
            f"error: rho budget exhausted on cofactor {cofactor} (unfactored cofactor {cofactor})\n"
        )


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

    def test_range_past_the_sieve_is_a_domain_error(self, runner):
        # the smallest N with 2N above SIEVE_MAX, refused before the
        # range 1..N or any row is built
        N = SIEVE_MAX // 2 + 1
        start = time.perf_counter()
        result = runner.invoke(main, ["binomial", "--N", str(N)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.output == (
            f"error: prime cutoff {2 * N} exceeds the sieve limit SIEVE_MAX = {SIEVE_MAX}\n"
        )


class TestOutFile:
    def test_out_path(self, runner, tmp_path):
        out = tmp_path / "result.json"
        result = runner.invoke(main, ["bounds", "--N", "100", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SCHEMA)

    def test_unwritable_out_is_a_usage_error(self, runner, tmp_path):
        out = tmp_path / "no" / "such" / "x.json"
        result = runner.invoke(main, ["bounds", "--N", "10", "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == (
            f"error: cannot write --out {out}: No such file or directory\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("command, cutoff", [
    (["svalue", "--base", "2", "--n", "10", "--y", "10000000000"], 10**10),
    (["membership", "--base", "2", "--n", "1000000000000", "--K", "1", "--c", "1.01"], 10**12),
    (["enumerate", "--base", "2", "--theta", "19/10", "--N", "1000000", "--c", "1.01"],
     251188643150),
    (["dyadic", "--base", "2", "--N", "1000000000", "--K", "1"], 10**9),
    # about 8,500 digits, past Python's int-to-str limit: named by its size
    (["svalue", "--base", "2", "--n", "9" * 4299, "--theta", "71/36"], ">= 2^28165"),
])
def test_cutoff_above_sieve_limit_is_a_domain_error(runner, command, cutoff):
    result = runner.invoke(main, command)
    assert result.exit_code == 2
    assert result.output == (
        f"error: prime cutoff {cutoff} exceeds the sieve limit SIEVE_MAX = {SIEVE_MAX}\n"
    )


PINNED = json.loads((DATA / "cli_outputs.json").read_text())


@pytest.mark.parametrize("entry", PINNED, ids=[e["command"] for e in PINNED])
def test_every_subcommand_output_is_pinned(runner, entry):
    # A row is its report's fields, so a field added to a report would
    # otherwise become an output column unnoticed.  Re-record this file
    # with tests/data/record_cli_outputs.py only when the output is meant
    # to change.
    result = runner.invoke(main, entry["command"].split())
    assert result.exit_code == 0, result.output
    assert result.stdout == entry["stdout"]


def test_recorder_lists_exactly_the_pinned_commands():
    # test_every_subcommand_output_is_pinned runs the recorded file, so a
    # command appended to the recorder but never recorded would never run
    spec = importlib.util.spec_from_file_location("record_cli_outputs", DATA / "record_cli_outputs.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    assert [entry["command"] for entry in PINNED] == recorder.COMMANDS


def test_tiny_K_snk_has_no_primes(runner):
    # float(1e-400) underflows to 0; floor(Kn) = 0 leaves nothing to count
    doc = invoke_json(runner, ["snk", "--base", "2", "--n", "100", "--K", "1e-400"])
    row = doc["results"][0]
    assert row["prime_count"] == 0
    assert row["normalized"] == 0


def _edge_grid():
    bases = ["2", "3", "4", "9"]
    Ks = ["1/1000", "1/3", "1", "3/2"]
    cutoffs = [["--K", k] for k in Ks] + [["--theta", t] for t in ("1/1000", "1/2", "1999/1000")]
    for b in bases:
        for cut in cutoffs:
            yield ["membership", "--base", b, "--n", "5", *cut, "--c", "6/5"]
            yield ["enumerate", "--base", b, "--N", "5", *cut, "--c", "6/5"]
            yield ["svalue", "--base", b, "--n", "5", *cut]
            yield ["bounds", "--N", "5", "--check-base", b, "--check-c", "6/5", *cut]
        for k in Ks:
            yield ["snk", "--base", b, "--n", "5", "--K", k]
            yield ["window", "--base", b, "--N", "5", "--K", k, "--c", "6/5"]
            yield ["dyadic", "--base", b, "--N", "5", "--K", k]
            yield ["abc", "--base", b, "--n", "5", "--K", k, "--c", "3/2"]
    for N in ["2", "3", "4", "5"]:
        yield ["enumerate", "--base", "2", "--N", N, "--K", "1", "--c", "6/5"]
        yield ["window", "--base", "2", "--N", N, "--K", "1"]
        yield ["dyadic", "--base", "2", "--N", N, "--K", "1"]
        yield ["bounds", "--N", N, "--p", "17"]
        yield ["binomial", "--N", N]
        yield ["binomial", "--n", N]
    for y in ["0", "-1", "1e-320", "1e308", "nan", "inf"]:
        yield ["dyadic", "--base", "2", "--N", "5", "--K", "1", "--y", y]
    for c in ["1e400", "1.0000000000000000000001", "1/0", "-2"]:
        yield ["membership", "--base", "2", "--n", "5", "--K", "1", "--c", c]
        yield ["enumerate", "--base", "2", "--N", "5", "--K", "1", "--c", c]
        yield ["window", "--base", "2", "--N", "5", "--K", "1", "--c", c]
        yield ["bounds", "--N", "5", "--check-base", "2", "--K", "1", "--check-c", c]
        yield ["abc", "--base", "2", "--n", "5", "--K", "1", "--c", c]
    for k in ["1e-400", "1e400"]:
        yield ["snk", "--base", "2", "--n", "100", "--K", k]


def test_edge_inputs_exit_0_2_or_3(runner):
    # exit 1 is an uncaught exception
    calls = list(_edge_grid())
    bad = [(args, result.exit_code, result.output) for args in calls
           if (result := runner.invoke(main, args)).exit_code not in (0, 2, 3)]
    assert len(calls) > 200
    assert not bad
