"""Command-line surface.  Every subcommand emits machine-readable JSON
(default) or CSV, deterministically: identical inputs give byte-identical
output.  --threads is accepted and ignored.

A result row is its report's fields in declaration order: every report
is a NamedTuple, and the row is its _asdict().  abc leaves s_factors
out and prints A, B, C, rad_ABC, s_value and t_value as decimal
strings; binomial leaves factors and smooth_part out.  svalue has no
report type, so its row is written out field by field here, as are the
rows no report stands behind: enumerate's n and bounds' closed forms."""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction

import click

from .abc_triples import abc_quality
from .arith import Factorization, FactorizationError, primes_upto
from .binomial import binomial_membership
from .bounds import _density_terms, default_y, stewart_bound
from .orders import SequenceSpec
from .smooth import (
    CutoffSpec,
    counting_report,
    enumerate_members,
    membership,
    smooth_part_of_term,
)
from .windows import density_check, dyadic_partition, window_product

SCHEMA_VERSION = 1


def _parse_rational(value: str) -> Fraction:
    """Exact rational from 'P/Q' or a decimal literal (1.2 -> 6/5)."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"not a rational: {value!r}") from exc


class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        return _parse_rational(value)


RATIONAL = RationalParam()


def _fmt_real(x: float) -> str:
    return format(x, ".12g")


def _double(x) -> float:
    """x as a finite double; OverflowError when it does not fit one."""
    v = float(x)
    if not math.isfinite(v):
        raise OverflowError(f"{x} is out of range")
    return v


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_real(v)
    if v is None:
        return ""
    if isinstance(v, Factorization):
        return ";".join(f"{p}^{e}" for p, e in v)
    if isinstance(v, tuple):  # a (p, ell, o) order record
        return ":".join(map(str, v))
    if isinstance(v, list):
        return ";".join(_csv_cell(x) for x in v)
    return str(v)


def _json_default(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, Factorization):
        return [[p, e] for p, e in v]
    raise TypeError(f"not JSON serializable: {v!r}")


def _emit(parameters: dict, results: list[dict], fmt: str, out: str | None):
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "parameters": parameters, "results": results}
        text = json.dumps(doc, indent=2, default=_json_default, allow_nan=False) + "\n"
    else:
        # rows may differ in shape (the density table's rows follow the
        # bounds row), so the header is every key in first-seen order
        columns = list(dict.fromkeys(c for row in results for c in row))
        lines = [",".join(columns)]
        for row in results:
            lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            click.echo(f"error: cannot write --out {out}: {exc.strerror or exc}", err=True)
            sys.exit(2)
    else:
        sys.stdout.write(text)


def _cutoff(K: Fraction | None, theta: Fraction | None) -> CutoffSpec:
    if (K is None) == (theta is None):
        raise click.UsageError("exactly one of --K and --theta is required")
    if theta is not None:
        return CutoffSpec.power(theta)
    return CutoffSpec.linear(K)


def _common(f):
    """Make f, which returns (parameters, rows), a command: add the
    output options, emit what f returns, and map library errors to exit
    codes (3 for an exhausted factoring budget, 2 for a domain error)."""

    @functools.wraps(f)
    def command(fmt, out, threads, **kwargs):
        try:
            _emit(*f(**kwargs), fmt, out)
        except FactorizationError as exc:
            click.echo(f"error: {exc} (unfactored cofactor {exc.cofactor})", err=True)
            sys.exit(3)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except OverflowError as exc:
            click.echo(f"error: result does not fit a double ({exc})", err=True)
            sys.exit(2)

    command = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
                           show_default=True, help="Output format.")(command)
    command = click.option("--out", type=click.Path(dir_okay=False), default=None,
                           help="Write output to PATH instead of stdout.")(command)
    command = click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
                           help="Accepted for compatibility and ignored.")(command)
    return command


def _cutoff_opts(f):
    f = click.option("--K", "K", type=RATIONAL, default=None,
                     help="Linear cutoff: y(n) = floor(K*n).")(f)
    f = click.option("--theta", type=RATIONAL, default=None,
                     help="Power cutoff: y(n) = floor(n**theta); excludes --K.")(f)
    return f


@click.group()
def main():
    """Exact smooth parts, orders and p-adic valuations of a^n - 1."""


@main.command("membership")
@click.option("--base", type=click.IntRange(min=2), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@_cutoff_opts
@click.option("--c", "c", type=RATIONAL, required=True)
@_common
def membership_cmd(base, n, K, theta, c):
    """Decide whether the smooth part of base^n - 1 exceeds c^n."""
    cutoff = _cutoff(K, theta)
    v = membership(SequenceSpec(base), n, cutoff, c)
    params = {"base": base, "n": n, "cutoff": cutoff.describe(), "c": c}
    return params, [v._asdict()]


@main.command("enumerate")
@click.option("--base", type=click.IntRange(min=2), required=True)
@click.option("--N", "N", type=click.IntRange(min=0), required=True)
@_cutoff_opts
@click.option("--c", "c", type=RATIONAL, required=True)
@_common
def enumerate_cmd(base, N, K, theta, c):
    """List the n <= N whose smooth part exceeds c^n."""
    cutoff = _cutoff(K, theta)
    members = enumerate_members(SequenceSpec(base), cutoff, c, N)
    params = {"base": base, "N": N, "cutoff": cutoff.describe(), "c": c}
    return params, [{"n": n} for n in members]


@main.command("svalue")
@click.option("--base", type=click.IntRange(min=2), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--y", type=click.IntRange(min=0), default=None,
              help="Explicit smoothness cutoff; overrides --K/--theta.")
@_cutoff_opts
@click.option("--materialize", is_flag=True, help="Include the exact integer value.")
@_common
def svalue_cmd(base, n, y, K, theta, materialize):
    """Smooth part of base^n - 1 at one cutoff."""
    if y is None:
        y = _cutoff(K, theta).value_at(n)
    factors = smooth_part_of_term(SequenceSpec(base), n, y)
    params = {"base": base, "n": n, "y": y, "materialize": materialize}
    row = {"n": n, "cutoff_y": y, "factors": factors, "log_value": factors.log_value()}
    if materialize:
        row["exact_value"] = str(factors.value())
    return params, [row]


@main.command("snk")
@click.option("--base", type=click.IntRange(min=2), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--K", "K", type=RATIONAL, required=True)
@_common
def snk_cmd(base, n, K):
    """Log-sum over primes dividing base^n - 1 below the cutoff, the
    per-prime order records, and the counting bound."""
    rep = counting_report(SequenceSpec(base), K, n)
    return {"base": base, "n": n, "K": K}, [rep._asdict()]


@main.command("window")
@click.option("--base", type=click.IntRange(min=2), required=True)
@click.option("--N", "N", type=click.IntRange(min=2), required=True)
@click.option("--K", "K", type=RATIONAL, required=True)
@click.option("--c", "c", type=RATIONAL, default=None,
              help="Also count members in the window at this threshold.")
@_common
def window_cmd(base, N, K, c):
    """Windowed product of smooth parts over (N/2, N], both evaluation
    orders."""
    rep = window_product(SequenceSpec(base), K, N, c=c)
    return {"base": base, "N": N, "K": K, "c": c}, [rep._asdict()]


@main.command("dyadic")
@click.option("--base", type=click.IntRange(min=2), required=True)
@click.option("--N", "N", type=click.IntRange(min=3), required=True)
@click.option("--K", "K", type=RATIONAL, required=True)
@click.option("--y", type=float, default=None,
              help="Partition threshold parameter; defaults to the built-in y(N).")
@_common
def dyadic_cmd(base, N, K, y):
    """Two-bin split of primes by o_p*ln p/ell_p against 1/y."""
    if y is None:
        y = default_y(N)
    rep = dyadic_partition(SequenceSpec(base), K, N, y)
    return {"base": base, "N": N, "K": K, "y": y}, [rep._asdict()]


@main.command("bounds")
@click.option("--N", "N", type=click.IntRange(min=3), required=True)
@click.option("--p", "p", type=click.IntRange(min=17), default=None,
              help="Also evaluate the per-prime order bound at p.")
@click.option("--precision", type=click.Choice(["double", "high"]), default="double",
              show_default=True)
@click.option("--check-base", type=click.IntRange(min=2), default=None,
              help="Run the per-window density table for this base.")
@click.option("--check-c", type=RATIONAL, default=None)
@_cutoff_opts
@_common
def bounds_cmd(N, p, precision, check_base, check_c, K, theta):
    """Threshold function y(N), density bound, optional per-prime bound,
    and the optional observational density table."""
    params = {"N": N, "p": p, "precision": precision}
    y, bound = _density_terms(N, precision)
    row = {"N": N, "default_y": _double(y), "density_bound": _double(bound)}
    if p is not None:
        row["stewart_bound"] = _double(stewart_bound(p, precision))
    rows = [row]
    if check_base is None and any(v is not None for v in (check_c, K, theta)):
        raise click.UsageError("--check-c, --K and --theta apply only with --check-base")
    if check_base is not None:
        if check_c is None:
            raise click.UsageError("--check-c is required with --check-base")
        cutoff = _cutoff(K, theta)
        params.update({"check_base": check_base, "check_c": check_c,
                       "cutoff": cutoff.describe()})
        rows += (r._asdict() for r in density_check(SequenceSpec(check_base), cutoff, check_c, N))
    return params, rows


@main.command("abc")
@click.option("--base", type=click.IntRange(min=2), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--K", "K", type=RATIONAL, required=True)
@click.option("--c", "c", type=RATIONAL, required=True)
@_common
def abc_cmd(base, n, K, c):
    """Quality of the triple (base^n - 1, 1, base^n) and the smooth/rough
    split of the left side."""
    rep = abc_quality(SequenceSpec(base), n, K, c)
    row = rep._asdict()
    del row["s_factors"]
    row.update((k, str(row[k])) for k in ("A", "B", "C", "rad_ABC", "s_value", "t_value"))
    return {"base": base, "n": n, "K": K, "c": c}, [row]


@main.command("binomial")
@click.option("--n", type=click.IntRange(min=1), default=None,
              help="Single index to report.")
@click.option("--N", "N", type=click.IntRange(min=1), default=None,
              help="Report every index 1..N.")
@_common
def binomial_cmd(n, N):
    """Smooth-part report for central binomial coefficients."""
    if (n is None) == (N is None):
        raise click.UsageError("exactly one of --n and --N is required")
    if N is not None:
        primes_upto(2 * N)  # presize the sieve; past SIEVE_MAX this exits 2 before any row
    ns = [n] if n is not None else range(1, N + 1)
    rows = []
    for i in ns:
        row = binomial_membership(i)._asdict()
        del row["factors"], row["smooth_part"]
        rows.append(row)
    return {"n": n, "N": N}, rows


if __name__ == "__main__":
    main()
