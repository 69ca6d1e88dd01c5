"""Extremal family constructions and the majorization order."""

import numpy as np
import pytest

from qminlab import (
    InvalidParameterError,
    PendantProfile,
    UParams,
    balanced_profile,
    build_K,
    build_U,
    build_U_std,
    majorizes,
    structure_report,
)


def all_profiles(length, total):
    def rec(remaining, slots, cap):
        if slots == 0:
            return [()] if remaining == 0 else []
        out = []
        for first in range(min(remaining, cap), -1, -1):
            out.extend((first,) + rest for rest in rec(remaining - first, slots - 1, first))
        return out

    return [PendantProfile(p) for p in rec(total, length, total)]


# -- the cycle-stem-broom family ----------------------------------------------


def test_build_u_smallest_instance():
    g, lm = build_U(UParams(5, 1, 3, 2, (2,)))
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
    assert g.degrees() == (2, 2, 3, 2, 1)
    assert lm.cycle == (0, 1, 2)
    assert lm.stem == (2, 3)
    assert lm.anchor == 3
    assert lm.pendant_paths == ((3, 4),)


def test_build_u_two_brooms():
    g, lm = build_U(UParams(7, 2, 3, 3, (2, 2)))
    rep = structure_report(g)
    assert rep.pendant_count == 2 and rep.girth == 3
    assert g.degree(lm.anchor) == 3


def test_build_u_rejects_bad_count():
    with pytest.raises(InvalidParameterError):
        build_U(UParams(5, 1, 3, 1, (2,)))  # 3+1+2 = 6 != 5+1+1


def test_build_u_rejects_even_girth_short_paths():
    with pytest.raises(InvalidParameterError):
        build_U(UParams(6, 1, 4, 1, (2,)))
    with pytest.raises(InvalidParameterError):
        build_U(UParams(5, 1, 3, 2, (1,)))
    with pytest.raises(InvalidParameterError):
        build_U(UParams(4, 0, 3, 2, ()))


def test_build_u_std_matches_explicit():
    g1, lm1 = build_U_std(5, 1, 3)
    g2, lm2 = build_U(UParams(5, 1, 3, 2, (2,)))
    assert g1 == g2 and lm1 == lm2


def test_build_u_std_boundary_and_bigger():
    # n = g + k - 1 makes the derived stem length n + k + 1 - g - 2k zero
    with pytest.raises(InvalidParameterError):
        build_U_std(3 + 2 - 1, 2, 3)
    g, _ = build_U_std(10, 3, 5)  # derived stem length 10+3+1-5-6 = 3
    rep = structure_report(g)
    assert g.n == 10 and rep.girth == 5 and rep.pendant_count == 3


def test_build_u_std_structural_sweep():
    for n in range(4, 21):
        for g_len in range(3, n + 1, 2):
            for k in range(1, n - g_len + 1):
                if n + k + 1 - g_len - 2 * k < 1:
                    continue
                graph, lm = build_U_std(n, k, g_len)
                rep = structure_report(graph)
                assert graph.n == n
                assert graph.edge_count == n  # unicyclic
                assert rep.connected
                assert rep.bipartite is None
                assert rep.girth == g_len
                assert rep.pendant_count == k
                assert len(lm.pendant_paths) == k


def test_stem_collapses_when_l_is_one():
    g, lm = build_U(UParams(6, 2, 3, 1, (2, 3)))
    assert lm.anchor == lm.cycle[-1]
    assert structure_report(g).pendant_count == 2


# -- the pendant-decorated clique family --------------------------------------


def test_build_k_worked_profile():
    g, lm = build_K(PendantProfile((2, 2, 2, 0)))
    assert g.n == 10
    assert g.degrees() == (5, 5, 5, 3, 1, 1, 1, 1, 1, 1)
    assert lm.clique == (0, 1, 2, 3)
    assert lm.pendants_of == ((4, 5), (6, 7), (8, 9), ())
    # non-pendant core is a clique
    for i in lm.clique:
        for j in lm.clique:
            if i != j:
                assert g.has_edge(i, j)


def test_build_k_triangle_with_pendant():
    g, _ = build_K(PendantProfile((1, 0, 0)))
    assert g.n == 4
    assert structure_report(g).pendant_count == 1


def test_build_k_rejects_small_clique():
    with pytest.raises(InvalidParameterError):
        build_K(PendantProfile((2, 1)))


def test_build_k_order_and_min_degree():
    for entries in [(3, 1, 0), (2, 2, 2, 0), (1, 1, 1, 1), (4, 0, 0)]:
        nu = PendantProfile(entries)
        g, _ = build_K(nu)
        assert g.n == nu.n
        assert min(g.degrees()) == 1


def test_profile_validation():
    with pytest.raises(InvalidParameterError):
        PendantProfile((1, 2))  # increasing
    with pytest.raises(InvalidParameterError):
        PendantProfile((2, -1))
    with pytest.raises(InvalidParameterError):
        PendantProfile(())


def test_integer_like_parameters_convert_and_others_are_refused():
    assert PendantProfile((np.int64(2), 1, 1)).entries == (2, 1, 1)
    assert balanced_profile(np.int64(10), np.int32(6)) == balanced_profile(10, 6)
    assert build_U_std(np.int64(7), 1, 3) == build_U_std(7, 1, 3)
    params = UParams(n=np.int64(7), k=1, g=np.int8(3), l=4, lengths=[np.int64(2)])
    assert params == UParams(n=7, k=1, g=3, l=4, lengths=(2,))
    assert type(params.n) is int and type(params.lengths[0]) is int
    for bad in [
        lambda: PendantProfile((2.5, 1, 1)),
        lambda: PendantProfile((True, 0, 0)),
        lambda: balanced_profile(7.0, 2),
        lambda: build_U_std(7, 1.0, 3),
        lambda: UParams(n=7, k=1, g=3, l=True, lengths=(2,)),
        lambda: UParams(n=7, k=1, g=3, l=4, lengths=(2.0,)),
    ]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            bad()


# -- majorization ---------------------------------------------------------------


def test_majorizes_examples():
    assert majorizes(PendantProfile((2, 1, 0)), PendantProfile((1, 1, 1)))
    nu = PendantProfile((2, 2, 2, 0))
    mu = PendantProfile((2, 2, 1, 1))
    assert majorizes(nu, mu) and nu != mu
    assert not majorizes(mu, nu)
    p = PendantProfile((1, 1, 1))
    assert majorizes(p, p)


def test_majorizes_requires_matching_shape():
    with pytest.raises(InvalidParameterError):
        majorizes(PendantProfile((2, 1)), PendantProfile((1, 1, 1)))
    with pytest.raises(InvalidParameterError):
        majorizes(PendantProfile((2, 1, 0)), PendantProfile((1, 1, 0)))


def test_majorizes_partial_order_properties():
    for length in range(1, 6):
        for total in range(0, 9):
            profiles = all_profiles(length, total)
            for a in profiles:
                assert majorizes(a, a)
                for b in profiles:
                    if majorizes(a, b) and majorizes(b, a):
                        assert a == b
                    for c in profiles:
                        if majorizes(a, b) and majorizes(b, c):
                            assert majorizes(a, c)


def test_balanced_profile_examples():
    assert balanced_profile(10, 6).entries == (2, 2, 1, 1)
    assert balanced_profile(8, 4).entries == (1, 1, 1, 1)
    assert balanced_profile(7, 1).entries == (1, 0, 0, 0, 0, 0)
    with pytest.raises(InvalidParameterError):
        balanced_profile(5, 3)  # clique order 2
    with pytest.raises(InvalidParameterError):
        balanced_profile(5, 0)


def test_balanced_profile_is_majorization_minimum():
    for core in range(3, 5):
        for k in range(1, 9):
            n = core + k
            bal = balanced_profile(n, k)
            for other in all_profiles(core, k):
                assert majorizes(other, bal)
