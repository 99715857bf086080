import math
from fractions import Fraction

import pytest

from smoothlab.abc_triples import abc_quality, factor_term
from smoothlab.orders import SequenceSpec
from smoothlab.smooth import CutoffSpec, membership


class TestFactorTerm:
    def test_examples(self):
        assert dict(factor_term(SequenceSpec(2), 6)) == {3: 2, 7: 1}
        assert dict(factor_term(SequenceSpec(2), 11)) == {23: 1, 89: 1}
        assert dict(factor_term(SequenceSpec(3), 2)) == {2: 3}


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
                engine = smooth_part_of_term(seq, n, n, materialize=True)
                assert rep.s_factors == engine.factors

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
