"""Exact arithmetic layer: polynomials, pairings and linear solving."""
from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from tripoly.exactmath import (
    PolyS,
    PolyST,
    PolySUW,
    PolyT,
    binomial,
    catalan,
    catalan_pair_st,
    catalan_pair_t,
    complete_edge_basis,
    hankel_recover,
    maximal_edge_basis,
    series_pair_uw,
    solve_integer_system,
)
from tripoly.neargon import EdgePolynomial, convex_edge_states


def tmono(exp, coeff=1):
    return PolyT({exp: coeff})


class TestCatalan:
    def test_small_values(self):
        assert [catalan(i) for i in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_larger_values(self):
        assert catalan(12) == 208012
        assert catalan(13) == 742900

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            catalan(-1)

    @given(st.integers(min_value=1, max_value=60))
    def test_segner_recurrence(self, n):
        assert catalan(n) == sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


class TestBinomial:
    def test_matches_math_comb_inside_range(self):
        for n in range(8):
            for k in range(n + 1):
                assert binomial(n, k) == comb(n, k)

    def test_zero_outside_range(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 0) == 0


class TestPolyT:
    def test_term_and_text(self):
        q = PolyT({4: 2}) - PolyT({3: 1})
        assert q.text() == "2*t^4 - 1*t^3"

    def test_t_is_the_variable(self):
        assert PolyT({1: 1}).text() == "1*t^1"

    def test_degree_and_coeff(self):
        q = PolyT({4: 1, 2: -3})
        assert max(q.c, default=-1) == 4
        assert q.coeff(2) == -3
        assert q.coeff(7) == 0
        assert max(PolyT().c, default=-1) == -1

    def test_constructor_drops_zeros(self):
        assert PolyT({3: 0, 2: 1}).c == {2: 1}

    def test_mul_int_and_poly(self):
        q = PolyT({1: 1, 0: 1})
        assert (q * q).c == {2: 1, 1: 2, 0: 1}
        assert (3 * q).c == {1: 3, 0: 3}

    def test_shift(self):
        q = PolyT({2: 5})
        assert q.shift(3).c == {5: 5}
        assert q.shift(-2).c == {0: 5}
        with pytest.raises(ValueError):
            PolyT({0: 1}).shift(-1)

    def test_zero_coefficients_dropped(self):
        q = PolyT({1: 1}) - PolyT({1: 1})
        assert q.c == {}
        assert not q


class TestPolyS:
    def test_basic_ops(self):
        p = PolyS({8: 12, 7: 16, 6: 5})
        assert max(p.c, default=-1) == 8
        assert p.leading() == 12
        assert p.text() == "12*s^8 + 16*s^7 + 5*s^6"

    def test_empty_poly(self):
        assert max(PolyS().c, default=-1) == -1
        assert PolyS().leading() == 0
        assert PolyS().text() == "0"

    def test_int_scaling(self):
        p = 2 * PolyS({3: 1, 2: 4})
        assert p.c == {3: 2, 2: 8}

    def test_addition(self):
        p = PolyS({3: 1}) + PolyS({3: 2, 1: 7})
        assert p.c == {3: 3, 1: 7}


class TestPolyST:
    def test_from_t_and_slices(self):
        q = maximal_edge_basis(3)
        p = PolyST.from_t(q, 3)
        assert p.coefficient_s(3).c == q.c
        assert p.coefficient_s(2).c == {}
        assert set(p.c) == {(3, 3), (3, 2)}

    def test_text(self):
        p = PolyST({(3, 2): 3})
        assert "s^3*t^2" in p.text()

    def test_product_adds_in_both_variables(self):
        a = PolyST.from_t(tmono(1), 1)
        b = PolyST.from_t(tmono(2), 2)
        assert (a * b).c == {(3, 3): 1}


def schoolbook_st(a: PolyST, b: PolyST) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for (h1, t1), v1 in a.c.items():
        for (h2, t2), v2 in b.c.items():
            k = (h1 + h2, t1 + t2)
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def random_st(rng: random.Random) -> PolyST:
    """Sparse (s, t) polynomial with signed coefficients from tiny to
    10^40 and 2^64 - 1, sometimes empty or constant."""
    shape = rng.random()
    if shape < 0.05:
        return PolyST()
    sizes = (1, 3, 10**40, 2**64 - 1, 2**64)
    if shape < 0.1:
        return PolyST({(0, 0): rng.choice((-1, 1)) * rng.choice(sizes)})
    terms = {}
    for _ in range(rng.randint(1, 12)):
        size = rng.choice(sizes)
        terms[rng.randrange(9), rng.randrange(7)] = rng.choice((-1, 1)) * rng.randint(1, size)
    return PolyST(terms)


class TestPackedProduct:
    def test_matches_the_schoolbook_product(self):
        rng = random.Random(7)
        for _ in range(400):
            a, b = random_st(rng), random_st(rng)
            assert (a * b).c == schoolbook_st(a, b), (a, b)

    def test_dense_all_ones(self):
        for n in (1, 2, 5, 16):
            ones = PolyST({(h, t): 1 for h in range(3) for t in range(n)})
            sq = ones * ones
            assert sq.c == schoolbook_st(ones, ones)
            assert sq.c[2, n - 1] == 3 * n  # the most products meet here
            big = PolyST({(h, t): -(2**64 - 1) for h in range(3) for t in range(n)})
            assert (big * big).c == schoolbook_st(big, big)
            assert (big * ones).c == schoolbook_st(big, ones)

    def test_products_at_the_bound(self):
        # a monomial times a monomial reaches |c| = ||a||_1 ||b||_1; these
        # products sit just below and at a power of two next to a byte edge
        for bits in (7, 8, 63, 64, 135, 136):
            for c in (2**bits - 1, 2**bits):
                for sign in (1, -1):
                    a = PolyST({(1, 3): sign * c})
                    b = PolyST({(2, 0): 1})
                    assert (a * b).c == {(3, 3): sign * c}
                    assert (b * a).c == {(3, 3): sign * c}
                    spread = PolyST({(1, 0): sign * c, (1, 2): -c})
                    assert (spread * b).c == schoolbook_st(spread, b)

    def test_empty_and_constant_operands(self):
        p = PolyST({(3, 2): -5, (1, 0): 10**40})
        assert (p * PolyST()).c == {}
        assert (PolyST() * p).c == {}
        assert (p * PolyST({(0, 0): 1})) == p
        assert (PolyST({(0, 0): -3}) * p).c == {(3, 2): 15, (1, 0): -3 * 10**40}

    def test_cancellation_drops_zero_terms(self):
        a = PolyST({(0, 1): 1, (0, 0): 1})
        b = PolyST({(0, 1): 1, (0, 0): -1})
        assert (a * b).c == {(0, 2): 1, (0, 0): -1}

    def test_int_scaling_is_unchanged(self):
        p = PolyST({(3, 2): -5, (1, 0): 7})
        assert (3 * p).c == {(3, 2): -15, (1, 0): 21}
        assert (p * 3).c == (3 * p).c
        assert (0 * p).c == {}


class TestEdgeBasis:
    def test_first_polynomials(self):
        assert maximal_edge_basis(1).c == {1: 1}
        assert maximal_edge_basis(2).c == {2: 1, 1: -1}
        assert maximal_edge_basis(3).c == {3: 1, 2: -2}
        assert maximal_edge_basis(4).c == {4: 1, 3: -3, 2: 1}
        assert maximal_edge_basis(5).c == {5: 1, 4: -4, 3: 3}

    def test_signed_binomial_coefficients(self):
        for n in range(1, 12):
            q = maximal_edge_basis(n)
            for k in range(n + 1):
                assert q.coeff(n - k) == (-1) ** k * binomial(n - k, k)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            maximal_edge_basis(0)

    def test_complete_basis_expansion(self):
        for n in range(1, 8):
            p = complete_edge_basis(n)
            for k in range(1, n + 1):
                layer = p.coefficient_s(k)
                expected = binomial(n - 1, k - 1) * maximal_edge_basis(k)
                assert layer.c == expected.c

    def test_complete_basis_top_slice_is_maximal(self):
        for n in range(1, 8):
            p = complete_edge_basis(n)
            assert p.coefficient_s(n).c == maximal_edge_basis(n).c


class TestCatalanPairing:
    def test_monomials(self):
        assert catalan_pair_t(tmono(2)) == 1
        assert catalan_pair_t(tmono(3)) == 1
        assert catalan_pair_t(tmono(4)) == 2
        assert catalan_pair_t(tmono(6)) == 14

    def test_low_powers_vanish(self):
        assert catalan_pair_t(tmono(0)) == 0
        assert catalan_pair_t(tmono(1)) == 0

    def test_basis_against_small_shifts(self):
        # <p_n t^2> = 1 and <p_n t^3> = n + 1 for every n
        for n in range(1, 10):
            q = maximal_edge_basis(n)
            assert catalan_pair_t(q.shift(2)) == 1
            assert catalan_pair_t(q.shift(3)) == n + 1

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=2, max_value=9))
    def test_pairing_is_linear(self, a, r):
        q = maximal_edge_basis(a).shift(r)
        assert catalan_pair_t(q + q) == 2 * catalan_pair_t(q)

    def test_st_pairing_collapses_t(self):
        p = PolyST.from_t(tmono(4), 4) + PolyST.from_t(tmono(2), 2)
        collapsed = catalan_pair_st(p)
        assert collapsed.c == {4: 2, 2: 1}

    def test_st_pairing_drops_low_t(self):
        p = PolyST.from_t(PolyT({1: 5, 3: 1}), 1)
        assert catalan_pair_st(p).c == {1: 1}


def st_from_terms(terms) -> PolyST:
    """Term-by-term sum of c * s^a * p_j over the pairs ((a, j), c)."""
    out = PolyST()
    for (a, j), c in terms:
        out = out + c * PolyST.from_t(maximal_edge_basis(j), a)
    return out


class TestFromP:
    def test_matches_the_term_by_term_sum(self):
        rng = random.Random(11)
        assert PolyST.from_p({}) == PolyST() == st_from_terms(())
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                size = rng.choice((1, 10, 10**40))
                c = rng.choice((-1, 1)) * rng.randint(1, size)
                terms[rng.randrange(12), rng.randint(1, 20)] = c
            p = PolyST.from_p(terms)
            assert p == st_from_terms(terms.items()), terms
            length = max(j for _, j in terms)
            assert EdgePolynomial(length, p).p_coefficients() == {
                a: {j: c for (b, j), c in sorted(terms.items()) if b == a}
                for a in sorted({a for a, _ in terms})
            }

    def test_p_terms_inverts_it(self):
        rng = random.Random(12)
        for _ in range(100):
            terms = {
                (rng.randrange(6), rng.randint(1, 12)):
                rng.choice((-1, 1)) * rng.randint(1, 10**20)
                for _ in range(rng.randint(0, 6))
            }
            assert PolyST.from_p(terms).p_terms() == terms
        # a constant term is c * p_0
        assert PolyST({(2, 0): 5, (2, 2): 1, (0, 1): -1}).p_terms() == {
            (2, 2): 1, (2, 1): 1, (2, 0): 5, (0, 1): -1,
        }

    def test_shared_keys_accumulate(self):
        p = PolyST.from_p({(1, 2): 3, (1, 1): 5, (0, 2): -1})
        assert p.c == {(1, 2): 3, (1, 1): 2, (0, 2): -1, (0, 1): 1}

    def test_rejects_weight_zero(self):
        with pytest.raises(ValueError):
            PolyST.from_p({(1, 0): 1})
        with pytest.raises(ValueError):
            PolyST.from_p({(2, 3): 1, (0, 0): 4})

    def test_series_pair_uw_on_convex_states(self):
        # series_pair_uw sums terms by (s, u) before it expands p_u
        rng = random.Random(5)
        for _ in range(30):
            profile = [rng.choice((1, -1)) for _ in range(rng.randint(0, 10))]
            for mode in ("complete", "maximal"):
                for r in convex_edge_states(profile, mode):
                    expected = st_from_terms(
                        ((a, u), v * catalan(w)) for (a, u, w), v in r.c.items()
                    )
                    assert series_pair_uw(r) == expected, (profile, mode)


class TestStatePolynomials:
    def test_pair_w_collapses_with_catalan_factor(self):
        r = PolySUW({(2, 1, 2): 1}) + PolySUW({(1, 1, 0): 1})
        assert r.pair_w().c == {(2, 1, 0): 2, (1, 1, 0): 1}

    def test_series_pair_uw(self):
        r = PolySUW({(2, 3, 1): 1})
        assert series_pair_uw(r) == PolyST.from_t(maximal_edge_basis(3), 2)

    def test_series_pair_uw_rejects_u_zero(self):
        with pytest.raises(ValueError):
            series_pair_uw(PolySUW({(1, 0, 2): 1}))

    def test_product(self):
        r = PolySUW({(1, 1, 1): 1}) * PolySUW({(2, 0, 1): 3})
        assert r.c == {(3, 1, 2): 3}


class TestSolver:
    def test_three_by_three(self):
        n = [[1, 1, 1], [4, 5, 6], [14, 20, 27]]
        assert solve_integer_system(n, [19, 87, 334]) == [10, 7, 2]

    def test_identity(self):
        assert solve_integer_system([[1, 0], [0, 1]], [5, -3]) == [5, -3]

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            solve_integer_system([[1, 2], [2, 4]], [1, 2])

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            solve_integer_system([[1, 2, 3], [4, 5, 6]], [1, 2])

    def test_non_integer_solution_raises(self):
        with pytest.raises(ValueError):
            solve_integer_system([[2, 0], [0, 2]], [1, 4])

    def test_accepts_fraction_rhs(self):
        sol = solve_integer_system([[1, 0], [0, 1]], [Fraction(4), Fraction(9)])
        assert sol == [4, 9]

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3))
    def test_round_trip(self, sol):
        n = [[1, 1, 1], [4, 5, 6], [14, 20, 27]]
        rhs = [sum(row[j] * sol[j] for j in range(3)) for row in n]
        assert solve_integer_system(n, rhs) == sol


class TestHankelRecovery:
    def test_single_monomial(self):
        assert hankel_recover([2], 4, 4).c == {4: 1}

    def test_recovers_basis_polynomial(self):
        q0 = maximal_edge_basis(4)
        values = [catalan_pair_t(q0.shift(r)) for r in range(3)]
        assert values == [0, 0, 1]
        assert hankel_recover(values, 2, 4).c == q0.c

    def test_known_double_root(self):
        assert hankel_recover([1, 2, 6], 2, 4).c == {4: 1, 3: -2, 2: 1}

    def test_bad_degree_bounds(self):
        with pytest.raises(ValueError):
            hankel_recover([1, 2, 3], 1, 3)
        with pytest.raises(ValueError):
            hankel_recover([1], 3, 2)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            hankel_recover([1, 2, 3], 2, 3)

    @given(
        st.dictionaries(
            st.integers(min_value=3, max_value=8),
            st.integers(min_value=-4, max_value=4),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_random_polynomials(self, coeffs):
        q0 = PolyT(coeffs)
        if not q0.c:
            return
        alpha, d = min(q0.c), max(q0.c)
        values = [catalan_pair_t(q0.shift(r)) for r in range(d - alpha + 1)]
        assert hankel_recover(values, alpha, d).c == q0.c


class TestPBasisCoefficients:
    def test_t_squared(self):
        assert PolyST.from_t(tmono(2)).p_terms() == {(0, 1): 1, (0, 2): 1}

    def test_basis_is_recovered_exactly(self):
        for n in range(1, 9):
            assert PolyST.from_t(maximal_edge_basis(n), 2).p_terms() == {(2, n): 1}

    def test_not_in_span_raises(self):
        with pytest.raises(ValueError, match="not a combination of the edge basis"):
            EdgePolynomial(0, PolyST.from_t(tmono(0))).p_coefficients()

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=7),
            st.integers(min_value=-5, max_value=5),
            max_size=4,
        )
    )
    def test_round_trip(self, coeffs):
        q = PolyT()
        for j, c in coeffs.items():
            q = q + c * maximal_edge_basis(j)
        want = {j: c for j, c in sorted(coeffs.items()) if c}
        assert PolyST.from_t(q).p_terms() == {(0, j): c for j, c in want.items()}
        got = EdgePolynomial(1, PolyST.from_t(q)).p_coefficients()
        assert got == ({0: want} if want else {})
