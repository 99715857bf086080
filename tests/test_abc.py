import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smoothlab import abc_triples, arith
from smoothlab.abc_triples import abc_quality, factor_term
from smoothlab.arith import FactorizationError, _cyclotomic, factorize
from smoothlab.orders import SequenceSpec, order_record
from smoothlab.smooth import CutoffSpec, membership

from oracles import term_factorization


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(m):
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


def cyclotomic_value(d, a):
    """Phi_d(a) as the product of (a^e - 1)^mu(d/e) over e | d."""
    num = den = 1
    for e in divisors(d):
        mu = mobius(d // e)
        if mu == 1:
            num *= a**e - 1
        elif mu == -1:
            den *= a**e - 1
    assert num % den == 0
    return num // den


def factored_pieces(monkeypatch, seq, n):
    """factor_term(seq, n) and the pieces it handed to factorize, the
    calls made with a step; the one without is n's own factorization."""
    pieces = []

    def recording(m, *args, **kwargs):
        if "step" in kwargs:
            pieces.append(m)
        return factorize(m, *args, **kwargs)

    monkeypatch.setattr(abc_triples, "factorize", recording)
    return factor_term(seq, n), pieces


class TestFactorTerm:
    def test_examples(self):
        assert dict(factor_term(SequenceSpec(2), 6)) == {3: 2, 7: 1}
        assert dict(factor_term(SequenceSpec(2), 11)) == {23: 1, 89: 1}
        assert dict(factor_term(SequenceSpec(3), 2)) == {2: 3}
        # 10^3 - 1 = Phi_1(10) * Phi_3(10) = 9 * 111: 3 sits in both pieces
        assert dict(factor_term(SequenceSpec(10), 3)) == {3: 3, 37: 1}

    @given(a=st.integers(min_value=2, max_value=30), n=st.integers(min_value=1, max_value=48))
    @example(a=2, n=48)
    @example(a=12, n=24)
    @example(a=23, n=22)
    @settings(max_examples=60)
    def test_matches_whole_term_factorization(self, a, n):
        assume(a**n < 2**120)
        seq = SequenceSpec(a)
        assert factor_term(seq, n) == term_factorization(seq, n)

    @pytest.mark.parametrize("a, n", [(2, 600), (2, 1), (3, 240), (10, 72), (12, 90), (7, 97)])
    def test_pieces_are_the_cyclotomic_values(self, monkeypatch, a, n):
        got, pieces = factored_pieces(monkeypatch, SequenceSpec(a), n)
        assert pieces == [cyclotomic_value(d, a) for d in divisors(n)]
        assert math.prod(pieces) == a**n - 1 == got.value()

    @given(a=st.integers(min_value=2, max_value=60), d=st.integers(min_value=1, max_value=400))
    @example(a=2, d=1)
    @example(a=10, d=8)  # Phi_8(10) = 10001
    @example(a=3, d=210)  # four primes: sixteen factors a^(d/e) - 1
    def test_cyclotomic_helper_matches_the_divisor_product(self, a, d):
        # the Moebius product over the primes of d, which factor_term and
        # the single-term passes share, against the product over all e | d
        assert _cyclotomic(a, d, [q for q, _ in factorize(d)]) == cyclotomic_value(d, a)

    @pytest.mark.parametrize("a, n", [(2, 600), (3, 240), (5, 120), (10, 72), (12, 90)])
    def test_piece_primes_have_order_d(self, monkeypatch, a, n):
        # p | Phi_d(a) and p not dividing n give ell_p = d (Zsigmondy's
        # primitive divisors)
        seq = SequenceSpec(a)
        _, pieces = factored_pieces(monkeypatch, seq, n)
        checked = 0
        for d, piece in zip(divisors(n), pieces):
            for p, _ in factorize(piece).restrict(10**5):
                if n % p != 0:
                    ell, _ = order_record(seq, p)
                    assert ell == d, (d, p)
                    checked += 1
        assert checked >= 10

    def test_budget_failure_keeps_earlier_pieces(self, monkeypatch):
        # 3^65 - 1: Phi_1(3) = 2, Phi_5(3) = 11^2 and Phi_13(3) = 797161
        # factor by trial division; Phi_65(3) = 131 * 3701101 *
        # 110133112994711 leaves a composite rho cannot split in 100 steps.
        monkeypatch.setattr(arith, "RHO_BUDGET", 100)
        with pytest.raises(FactorizationError) as exc:
            factor_term(SequenceSpec(3), 65)
        partial, cofactor = exc.value.partial, exc.value.cofactor
        assert dict(partial) == {2: 1, 11: 2, 131: 1, 797161: 1}
        assert cofactor == 3701101 * 110133112994711
        assert (3**65 - 1) % (partial.value() * cofactor) == 0

    def test_oversized_term_raises_before_building_it(self):
        # 2 * (2^19 + 1) bits counted for 2^(2^19 + 1) - 1, just past the cap
        with pytest.raises(ValueError, match="above POWER_CUTOFF_MAX_BITS"):
            factor_term(SequenceSpec(2), 2**19 + 1)


def factorize_outcome(m, budget, **kwargs):
    """factorize's result under this rho budget, or the partial result
    and cofactor it raised."""
    try:
        with mock.patch.object(arith, "RHO_BUDGET", budget):
            return factorize(m, **kwargs)
    except FactorizationError as exc:
        return exc.partial, exc.cofactor


class TestStepPromise:
    # the primes of Phi_d(a) divide d or are = 1 mod d, so trial division
    # by those primes alone finds what the full prime list finds
    @given(a=st.integers(min_value=2, max_value=40), d=st.integers(min_value=1, max_value=120),
           budget=st.sampled_from([100, 2**12]))
    @example(a=12, d=1, budget=2**12)
    @example(a=7, d=2, budget=2**12)
    @example(a=2, d=6, budget=2**12)  # Phi_6(2) = 3, a prime of d
    @example(a=3, d=37, budget=2**16)  # 13097927 * 17189128703, split by rho
    @example(a=3, d=65, budget=100)  # the budget failure of 3^65 - 1 below
    @settings(max_examples=60, deadline=None)
    def test_step_changes_nothing(self, a, d, budget):
        piece = cyclotomic_value(d, a)
        assert factorize_outcome(piece, budget, step=d) == factorize_outcome(piece, budget)

    def test_examples_take_their_paths(self, monkeypatch):
        # 3 | Phi_6(2) with 3 | 6; Phi_37(3) is above 10^12 with no prime
        # below 10^6; Phi_65(3) leaves rho a cofactor it cannot split in 100
        assert dict(factorize(cyclotomic_value(6, 2), step=6)) == {3: 1}
        assert dict(factorize(cyclotomic_value(37, 3), step=37)) == {13097927: 1, 17189128703: 1}
        monkeypatch.setattr(arith, "RHO_BUDGET", 100)
        with pytest.raises(FactorizationError) as exc:
            factorize(cyclotomic_value(65, 3), step=65)
        assert dict(exc.value.partial) == {131: 1}
        assert exc.value.cofactor == 3701101 * 110133112994711

    def test_rejects_step_below_one(self):
        with pytest.raises(ValueError):
            factorize(15, step=0)


class TestAbcQuality:
    def test_quality_example(self):
        rep = abc_quality(SequenceSpec(2), 6, 1, Fraction(6, 5))
        assert rep.rad_ABC == 42
        assert rep.quality == pytest.approx(1.1126941404922133, abs=1e-9)

    def test_smallest_case(self):
        rep = abc_quality(SequenceSpec(2), 1, 1, Fraction(3, 2))
        assert (rep.A, rep.B, rep.C) == (1, 1, 2)
        assert rep.rad_ABC == 2
        assert rep.quality == pytest.approx(1.0)

    def test_n2_case(self):
        rep = abc_quality(SequenceSpec(2), 2, 1, Fraction(3, 2))
        assert rep.A == 3 and rep.C == 4
        assert rep.rad_ABC == 6
        assert rep.quality == pytest.approx(math.log(4) / math.log(6))

    def test_rejects_c_outside_range(self):
        with pytest.raises(ValueError):
            abc_quality(SequenceSpec(2), 4, 1, 2)  # needs c < a
        with pytest.raises(ValueError):
            abc_quality(SequenceSpec(2), 4, 1, 1)

    def test_triple_invariants(self):
        for a in (2, 3):
            seq = SequenceSpec(a)
            c = Fraction(2 * a - 1, a)  # inside (1, a)
            for n in range(1, 25):
                rep = abc_quality(seq, n, 1, c)
                assert rep.A + rep.B == rep.C
                assert (rep.A * rep.B * rep.C) % rep.rad_ABC == 0
                assert rep.s_value * rep.t_value == rep.A

    def test_smooth_part_agrees_with_engine(self):
        from smoothlab.smooth import smooth_part_of_term

        for a in (2, 3):
            seq = SequenceSpec(a)
            for n in range(2, 20):
                rep = abc_quality(seq, n, 1, Fraction(a + 1, 2) if a > 2 else Fraction(3, 2))
                engine = smooth_part_of_term(seq, n, n)
                assert rep.s_factors == engine

    @pytest.mark.parametrize("a, c", [(3, Fraction(3, 2)), (9, Fraction(9, 8))])
    def test_cofactor_tie_is_not_below(self, a, c):
        # t = a^1 - 1 = a/c exactly, so the strict t < (a/c)^n fails
        rep = abc_quality(SequenceSpec(a), 1, 1, c)
        assert rep.t_value == a - 1 == a / c
        assert rep.cofactor_below_bound is False

    def test_membership_implies_small_cofactor(self):
        seq = SequenceSpec(2)
        cut = CutoffSpec.linear(1)
        c = Fraction(6, 5)
        for n in range(1, 20):
            rep = abc_quality(seq, n, 1, c)
            if membership(seq, n, cut, c).member:
                assert rep.cofactor_below_bound
