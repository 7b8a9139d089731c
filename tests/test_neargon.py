"""Near-edges and near-gons: edge polynomials, gluing, recovery, realization."""
from __future__ import annotations

import random

import pytest

from tripoly import neargon
from tripoly.exactmath import (
    PolyST,
    PolyT,
    catalan_pair_st,
    catalan_pair_t,
    complete_edge_basis,
    maximal_edge_basis,
    series_pair_uw,
)
from tripoly.neargon import (
    EDGE_METHODS,
    EdgePolynomial,
    NearGon,
    _realize_at,
    compose,
    convex_edge_complete,
    convex_edge_states,
    covering_roof_edge_poly,
    edge_poly,
    gon_poly,
    realize,
    recover_edge_poly_from_counts,
)
from tripoly.planar import (
    NearEdge,
    convex_polygon_points,
    convex_profile,
    extremal_points,
    factorize,
    profile_realization,
    vertical_mirror,
)
from tripoly.transfer import complete_config_poly, max_config_count
from tripoly.weighted import weighted_complete_poly

from corpus import (
    CATALOG_EQUAL_PAIRS,
    CATALOG_FACTOR_COUNTS,
    CATALOG_HEIGHTS,
    CATALOG_MIRROR_PAIRS,
    CATALOG_POLYS,
    CATALOG_PRODUCTS,
    EDGE12,
    EDGE_A,
    EDGE_A_PCOEFFS,
    EDGE_B,
    EDGE_B_PCOEFFS,
    EDGE_C,
    EDGE_C_PCOEFFS,
    FANS,
    GON_POLY,
    SMALL_EDGES,
    catalog_edge,
    straight_edge,
    TRIANGLE_POLY,
)
from reference import from_t, maximal_slice
from test_transfer import st_from_pcoeffs

from tripoly.planar import Configuration


def gon_edges():
    return NearEdge(EDGE_A), NearEdge(EDGE_B), NearEdge(EDGE_C)


class TestEdgePolynomial:
    def test_maximal_is_the_top_slice(self):
        ep = edge_poly(NearEdge(EDGE_C))
        assert ep.length == 5
        assert maximal_slice(ep).c == ep.complete.coefficient_s(5).c

    def test_p_coefficient_tables(self):
        assert edge_poly(NearEdge(EDGE_A)).p_coefficients() == EDGE_A_PCOEFFS
        assert edge_poly(NearEdge(EDGE_B)).p_coefficients() == EDGE_B_PCOEFFS
        assert edge_poly(NearEdge(EDGE_C)).p_coefficients() == EDGE_C_PCOEFFS

    def test_equality(self):
        ep = edge_poly(NearEdge(EDGE_C))
        assert ep == EdgePolynomial(5, ep.complete)
        assert ep != EdgePolynomial(4, ep.complete)
        assert ep != (5, ep.complete)

    def test_hash(self):
        ep = edge_poly(NearEdge(EDGE_C))
        twin = EdgePolynomial(5, PolyST(dict(ep.complete.c)))
        assert hash(ep) == hash(twin)
        assert {ep: "c"}[twin] == "c"
        assert len({ep, twin, EdgePolynomial(4, ep.complete)}) == 2

    def test_maximal_of_the_zigzag(self):
        q = maximal_slice(edge_poly(NearEdge(EDGE_A)))
        assert from_t(q).p_terms() == {(0, 3): 14, (0, 4): 7, (0, 5): 1}

    def test_p_coefficients_refuse_a_p0_term(self):
        edge = PolyST.from_p({(2, 2): 1, (1, 1): 3})
        for extra in ({(0, 0): 1}, {(1, 0): -2}, {(2, 0): 5}):
            ep = EdgePolynomial(2, edge + PolyST(extra))
            with pytest.raises(ValueError, match="not a combination of the edge basis"):
                ep.p_coefficients()
        assert EdgePolynomial(2, edge).p_coefficients() == {1: {1: 3}, 2: {2: 1}}


class TestEdgeMethods:
    def test_method_names(self):
        assert EDGE_METHODS == ("auto", "tm", "roofs", "convex")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            edge_poly(NearEdge(EDGE_A), method="fast")

    def test_convex_method_rejects_non_convex_edges(self):
        with pytest.raises(ValueError, match="not strictly convex"):
            edge_poly(NearEdge(EDGE_C), method="convex")

    def test_all_methods_agree_on_small_edges(self):
        for edge in SMALL_EDGES:
            auto = edge_poly(edge).complete
            assert edge_poly(edge, method="tm").complete == auto, edge
            assert edge_poly(edge, method="roofs").complete == auto, edge
            if convex_profile(edge) is not None:
                assert edge_poly(edge, method="convex").complete == auto, edge

    def test_straight_edges_use_the_basis(self):
        for a in range(1, 6):
            assert edge_poly(straight_edge(a)).complete == complete_edge_basis(a)

    def test_methods_agree_on_a_wide_edge(self):
        edge = NearEdge(EDGE12)
        assert (
            edge_poly(edge, method="roofs").complete
            == edge_poly(edge, method="tm").complete
        )


class TestCoveringRoofRoute:
    def test_zigzag(self):
        ep = covering_roof_edge_poly(NearEdge(EDGE_A))
        assert ep.length == 5
        assert ep.complete == st_from_pcoeffs(EDGE_A_PCOEFFS)


class TestConvexRecursion:
    def test_state_table_of_the_zigzag_profile(self):
        states = convex_edge_states((1, -1, 1, -1), "complete")
        assert states[0].c == {(1, 1, 0): 1}
        assert states[1].c == {(2, 2, 1): 1, (1, 1, 0): 1}
        assert states[2].c == {(3, 2, 2): 1, (2, 1, 1): 1, (3, 3, 0): 1, (2, 2, 0): 1}
        assert states[3].c == {
            (4, 3, 3): 1, (3, 2, 2): 2, (4, 4, 1): 1, (3, 3, 1): 1,
            (2, 1, 1): 1, (3, 3, 0): 1, (2, 2, 0): 1,
        }
        assert states[4].c == {
            (5, 3, 4): 1, (4, 2, 3): 2, (5, 4, 2): 1, (4, 3, 2): 1,
            (3, 1, 2): 1, (4, 3, 1): 1, (3, 2, 1): 1, (5, 4, 0): 5,
            (4, 3, 0): 4, (5, 5, 0): 1, (4, 4, 0): 2, (3, 2, 0): 1,
            (3, 3, 0): 1,
        }

    def test_seeds(self):
        assert convex_edge_states((), "complete")[0].c == {(1, 1, 0): 1}
        assert convex_edge_states((), "maximal")[0].c == {(0, 1, 0): 1}

    def test_bad_mode_and_profile(self):
        with pytest.raises(ValueError, match="mode"):
            convex_edge_states((1,), "fastest")
        with pytest.raises(ValueError, match="profile entries"):
            convex_edge_states((1, 0))

    def test_complete_matches_the_zigzag(self):
        assert convex_edge_complete((1, -1, 1, -1)) == st_from_pcoeffs(
            EDGE_A_PCOEFFS
        )

    def test_maximal_variant_matches_the_top_slice(self):
        for profile in [(), (1,), (-1,), (1, -1), (1, -1, 1, -1), (-1, -1, 1)]:
            ep = EdgePolynomial(len(profile) + 1, convex_edge_complete(profile))
            lean = series_pair_uw(convex_edge_states(profile, "maximal")[-1])
            lean = lean.coefficient_s(0)
            assert isinstance(lean, PolyT)
            assert lean == maximal_slice(ep)

    def test_empty_profile_is_the_unit_edge(self):
        assert convex_edge_complete(()) == complete_edge_basis(1)


class TestCatalog:
    def test_all_polynomials(self):
        for key, expected in CATALOG_POLYS.items():
            assert edge_poly(catalog_edge(key)).complete == expected, key

    def test_equal_pairs(self):
        for a, b in CATALOG_EQUAL_PAIRS:
            assert CATALOG_POLYS[a] == CATALOG_POLYS[b]

    def test_mirror_pairs_map_to_each_other(self):
        for a, b in CATALOG_MIRROR_PAIRS:
            mirrored = vertical_mirror(catalog_edge(a)).translate_to_origin()
            assert mirrored.points == catalog_edge(b).points

    def test_mirroring_preserves_the_polynomial(self):
        for key in CATALOG_HEIGHTS:
            edge = catalog_edge(key)
            assert (
                edge_poly(vertical_mirror(edge)).complete
                == edge_poly(edge).complete
            ), key

    def test_every_method_routes_the_prime_factors(self, monkeypatch):
        # the product of the factors' polynomials is the whole edge's, so
        # only the edges that the routes receive show the split
        received = []
        real = neargon._prime_terms

        def route(edge, method, maximal=False):
            received.append((edge, method, maximal))
            return real(edge, method, maximal)

        monkeypatch.setattr(neargon, "_prime_terms", route)
        for key in [k for k, count in CATALOG_FACTOR_COUNTS.items() if count > 1]:
            edge = catalog_edge(key)
            want = factorize(edge)
            for method in EDGE_METHODS:
                received.clear()
                try:
                    edge_poly(edge, method)
                except ValueError:
                    # a straight factor is not strictly convex
                    assert method == "convex", key
                    want = want[: len(received)]
                assert received == [(f, method, False) for f in want], (key, method)
            # the near-gon routes every edge's factors by "auto"
            want = factorize(edge)
            for maximal in (False, True):
                received.clear()
                gon_poly(NearGon((edge, edge)), maximal=maximal)
                assert received == [(f, "auto", maximal) for f in 2 * want], key

    def test_near_gons_of_catalog_edges_pair_as_composed(self):
        keys = sorted(CATALOG_HEIGHTS)
        for i in range(len(keys)):
            for size in (2, 3, 4):
                edges = [catalog_edge(k) for k in (keys * 2)[i : i + size]]
                polys = [edge_poly(e) for e in edges]
                gon = NearGon(edges)
                assert gon_poly(gon) == compose(polys), edges
                assert gon_poly(gon, maximal=True) == compose(polys, maximal=True), edges

    def test_product_identities(self):
        for key, factor_keys in CATALOG_PRODUCTS.items():
            prod = PolyST({(0, 0): 1})
            for fk in factor_keys:
                prod = prod * CATALOG_POLYS[fk]
            assert CATALOG_POLYS[key] == prod, key


class TestNearGon:
    def test_needs_two_edges(self):
        with pytest.raises(ValueError, match="two edges"):
            NearGon((NearEdge(EDGE_A),))

    def test_container_protocol(self):
        gon = NearGon(gon_edges())
        assert len(gon) == 3
        assert list(gon) == list(gon_edges())

    def test_equality_and_hash(self):
        gon = NearGon(list(gon_edges()))
        assert gon.edges == gon_edges()
        assert gon == NearGon(gon_edges())
        assert hash(gon) == hash(NearGon(gon_edges()))
        assert gon != NearGon(gon_edges()[:2])
        assert gon != gon_edges()


class TestCompose:
    def test_three_edge_gon(self):
        polys = [edge_poly(e) for e in gon_edges()]
        assert compose(polys).c == GON_POLY
        assert compose(polys, maximal=True) == 194939
        assert gon_poly(NearGon(gon_edges())).c == GON_POLY
        assert gon_poly(NearGon(gon_edges()), maximal=True) == 194939

    def test_maximal_equals_leading_coefficient(self):
        polys = [edge_poly(e) for e in gon_edges()]
        assert compose(polys, maximal=True) == compose(polys).leading()

    def test_straight_edges_reproduce_weighted_polygons(self):
        polys = [edge_poly(straight_edge(a)) for a in (5, 4, 5)]
        assert compose(polys).c == TRIANGLE_POLY
        assert compose(polys).c == weighted_complete_poly((5, 4, 5)).c

    def test_digon_composition(self):
        polys = [edge_poly(straight_edge(a)) for a in (9, 7)]
        assert compose(polys, maximal=True) == 792
        assert gon_poly(NearGon([straight_edge(a) for a in (9, 7)]), maximal=True) == 792

    def test_seeded_near_gons_pair_as_composed(self):
        # edges of weight 1-8 with heights in [-3, 3], some straight and
        # some strictly convex; every kind of factor and edge must occur
        rng = random.Random(32)
        seen = {"straight": 0, "convex": 0, "tm": 0, "split": 0, "unit": 0}
        for _ in range(120):
            edges = []
            for _ in range(rng.randint(2, 5)):
                w = rng.randint(1, 8)
                signs = [rng.choice((1, -1)) for _ in range(w - 1)]
                kind = rng.randrange(3)
                if kind == 0:
                    edge = straight_edge(w)
                elif kind == 1:
                    edge = profile_realization(signs)
                else:
                    heights = [rng.randint(-3, 3) for _ in range(w - 1)]
                    edge = NearEdge([(0, 0), *enumerate(heights, 1), (w, 0)])
                edges.append(edge)
                factors = factorize(edge)
                seen["split"] += len(factors) > 1
                seen["unit"] += w == 1
                for f in factors:
                    if f.is_straight():
                        seen["straight"] += 1
                    else:
                        seen["convex" if convex_profile(f) else "tm"] += 1
            polys = [edge_poly(e) for e in edges]
            gon = NearGon(edges)
            assert gon_poly(gon) == compose(polys), edges
            assert gon_poly(gon, maximal=True) == compose(polys, maximal=True), edges
        assert all(seen.values()), seen

    def test_needs_two_polynomials(self):
        with pytest.raises(ValueError, match="two edges"):
            compose([edge_poly(NearEdge(EDGE_A))])

    # factor lists over the edge basis, {(a, j): c} for c * s^a * p_j, that
    # reach every shift of the kernel's band layout: a factor of negative
    # rise (every a > j), p_0 terms with a > 0, single-term factors,
    # factors of different rises in one list and coefficients of +-10^30
    BAND_CASES = [
        [{(3, 1): 2, (4, 2): -1}, {(0, 5): 1, (2, 2): 3}, {(1, 4): -7}],
        [{(2, 0): 5, (0, 3): 1}, {(1, 0): -1}, {(0, 2): 1, (2, 6): 4}],
        [{(0, 1): 1}, {(4, 0): 10**30}, {(2, 5): -(10**30)}],
        [{(5, 1): 3, (6, 3): -1, (7, 0): 2}, {(2, 2): 1, (0, 4): -1}],
        [
            {(1, 1): 10**30, (0, 6): -1, (5, 2): 3},
            {(6, 1): -(10**30), (2, 3): 1},
            {(0, 0): 2, (3, 3): -1},
            {(3, 0): -(10**30)},
        ],
        [{(2, 2): 1}, {(0, 3): -2}, {(4, 1): 1, (1, 1): 10**30}],
    ]

    def test_signed_polynomials_match_the_schoolbook_product(self):
        # t^0 and t^1 terms expand to p_0 and p_1; both pair to 0, so a
        # negative field below t^2 must not borrow from the fields above
        cases = []
        for factors in self.BAND_CASES:
            polys = []
            for terms in factors:
                p0 = PolyST({k: c for k, c in terms.items() if not k[1]})
                poly = PolyST.from_p({k: c for k, c in terms.items() if k[1]}) + p0
                assert poly.p_terms() == terms
                polys.append(EdgePolynomial(max(a for a, _ in terms), poly))
            cases.append(polys)
        rng = random.Random(17)
        for i in range(400):
            polys = []
            for k in range(rng.randint(2, 4)):
                length = rng.randint(0, 4)
                empty = i % 40 == 0 and k == 1
                terms = {
                    (rng.randint(0, length), rng.randint(0, 5)):
                    rng.choice((-1, 1)) * rng.choice((1, 3, 10**30))
                    for _ in range(0 if empty else rng.randint(1, 6))
                }
                polys.append(EdgePolynomial(length, PolyST(terms)))
            cases.append(polys)
        for polys in cases:
            complete, top = PolyST({(0, 0): 1}), PolyT({0: 1})
            for ep in polys:
                complete, top = complete * ep.complete, top * maximal_slice(ep)
            assert compose(polys) == catalan_pair_st(complete), polys
            assert compose(polys, maximal=True) == catalan_pair_t(top), polys


class TestRecovery:
    def test_fan_counts_of_the_six_point_edge(self):
        counts = [
            max_config_count(Configuration(EDGE_C + FANS[: k + 1]))
            for k in range(3)
        ]
        assert counts == [19, 87, 334]
        recovered = recover_edge_poly_from_counts(counts, (3, 5))
        assert recovered == maximal_slice(edge_poly(NearEdge(EDGE_C)))
        assert from_t(recovered).p_terms() == {(0, 3): 10, (0, 4): 7, (0, 5): 2}

    def test_unit_edge(self):
        assert recover_edge_poly_from_counts((1,), (1, 1)) == maximal_edge_basis(1)

    def test_round_trip_for_known_edges(self):
        for pts in (EDGE_A, EDGE_B, EDGE_C):
            ep = edge_poly(NearEdge(pts))
            q, pc = maximal_slice(ep), ep.p_coefficients()[ep.length]
            alpha, d = min(pc), max(pc)
            counts = [
                catalan_pair_t(q.shift(r + 2)) for r in range(d - alpha + 1)
            ]
            assert recover_edge_poly_from_counts(counts, (alpha, d)) == q

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            recover_edge_poly_from_counts((1,), (0, 0))
        with pytest.raises(ValueError, match="alpha"):
            recover_edge_poly_from_counts((1,), (3, 2))
        with pytest.raises(ValueError, match="needs 3 counts"):
            recover_edge_poly_from_counts((1, 2), (3, 5))


class TestRealize:
    def test_three_edge_gon_polynomial(self):
        cfg = realize(NearGon(gon_edges()))
        assert len(cfg) == 14
        assert len(extremal_points(cfg.points)) == 7
        assert complete_config_poly(cfg).c == GON_POLY
        assert max_config_count(cfg) == 194939

    def test_accepts_plain_edge_sequences(self):
        cfg = realize(gon_edges())
        assert order_type_stable(cfg)

    def test_needs_three_edges(self):
        with pytest.raises(ValueError, match="three edges"):
            realize((NearEdge(EDGE_A), NearEdge(EDGE_B)))

    def test_unit_triangle(self):
        unit = straight_edge(1)
        cfg = realize((unit, unit, unit))
        assert len(cfg) == 3
        assert complete_config_poly(cfg).c == {3: 1}

    def test_rejects_flattenings_that_do_not_turn_as_the_limit(self):
        # the first two flattenings do not turn as the limit, and they
        # have 110 maximal triangulations against the near-gon's 109
        edges = [
            NearEdge(((0, 0), (1, 0), (2, 3), (3, 3), (4, 4))),
            NearEdge(((0, 0), (1, 1), (2, 0), (3, 0), (4, 0))),
            straight_edge(1),
        ]
        want = compose([edge_poly(e) for e in edges], maximal=True)
        assert max_config_count(realize(edges)) == want == 109

    def test_stops_at_the_first_flattening_that_turns_as_the_limit(self):
        # the first flattening already turns as the limit, though its
        # sweep-sorted order type is not that of the second
        edges = [
            straight_edge(1),
            straight_edge(1),
            NearEdge(((0, 0), (1, -2), (2, 2), (3, 0))),
        ]
        first = _realize_at(edges, convex_polygon_points(3), 1)
        cfg = realize(edges)
        assert cfg == Configuration(set().union(*first))
        want = compose([edge_poly(e) for e in edges])
        assert complete_config_poly(cfg) == want
        assert want.c == {5: 3, 4: 2}

    def test_straight_gon_matches_weighted_realization(self):
        cfg = realize([straight_edge(a) for a in (2, 3, 2)])
        assert complete_config_poly(cfg).c == weighted_complete_poly((2, 3, 2)).c


def order_type_stable(cfg):
    from tripoly.planar import order_type_equivalent

    again = realize(gon_edges())
    return order_type_equivalent(cfg.points, again.points)
