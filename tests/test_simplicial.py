"""Simplex enumeration, orientation signs, and the chain complex operators."""

import itertools
import math
from math import comb

import numpy as np
import pytest

from kmetrics import (
    Chain,
    apply_operator,
    boundary_operator,
    chain_from_dict,
    coboundary_operator,
    enumerate_simplices,
    indicator_chain,
    orientation_sign,
    simplex_index,
    simplicial,
    zero_chain,
)
from kmetrics.simplicial import (
    MAX_SIMPLICES,
    boundary_block,
    boundary_rows,
    coboundary_rows,
    face_ranks,
    simplex_at,
    simplex_rows,
    validate_simplex,
)
from oracles import boundary_matrix_reference

SUBDIVISION = ((0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4), (0, 3, 2), (2, 3, 5), (3, 4, 5))


def test_enumeration_order():
    assert enumerate_simplices(3, 1) == ((0, 1), (0, 2), (1, 2))
    assert enumerate_simplices(4, 2) == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert enumerate_simplices(5, 0) == ((0,), (1,), (2,), (3,), (4,))


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        enumerate_simplices(3, 3)
    with pytest.raises(ValueError):
        enumerate_simplices(3, -1)


def test_index_round_trip():
    for n, dim in [(5, 1), (6, 2), (7, 3), (4, 0)]:
        for i, s in enumerate(enumerate_simplices(n, dim)):
            assert simplex_index(n, s) == i
    for n in range(1, 10):
        for dim in range(n):
            rows = np.array(enumerate_simplices(n, dim))
            assert np.array_equal(simplex_index(n, rows), np.arange(len(rows)))
            # the library's enumeration: the same order as rows, and one row by its position
            listed = simplex_rows(n, dim)
            assert listed.dtype == np.int64
            assert np.array_equal(listed, np.array(list(itertools.combinations(range(n), dim + 1))))
            assert np.array_equal(simplex_index(n, listed), np.arange(len(rows)))
            for i, row in enumerate(listed.tolist()):
                at = simplex_at(n, dim, i)
                assert at == tuple(row) and {type(v) for v in at} == {int}
            with pytest.raises(ValueError, match="out of range"):
                simplex_at(n, dim, len(rows))
    count = comb(200, 4)
    assert count > MAX_SIMPLICES
    with pytest.raises(ValueError) as info:
        simplex_rows(200, 3)
    assert str(info.value) == (
        f"refusing to enumerate {count} simplices (n=200, dim=3); limit is {MAX_SIMPLICES}"
    )


def test_library_lists_the_order_without_the_tuple_cache(tmp_path):
    # every library path lists simplices through simplex_rows and simplex_at, so the
    # cached enumerate_simplices stays empty, and every reported vertex is a plain int
    import json

    from kmetrics import (
        InputError, KMetric, NormSpec, NotStrongError, PointCloud, UnfillableBoundaryError,
        WeightedComplex, apex_extend_chain_matrix, check_strong, check_weak,
        eval_coboundary_metric, frechet_embed, hypertree_to_l1, mbc_metric, min_bounding_chain,
        random_2hypertree, read_kmetric, volume_metric, volume_to_coboundary,
    )
    from kmetrics import corpus

    values = np.ones(comb(5, 3))
    values[0], values[simplex_index(5, (1, 2, 3))] = 10.0, 0.0
    d = KMetric(n=5, k=3, values=values)
    cloud = PointCloud(np.random.default_rng(0).normal(size=(6, 3)))
    unfillable = WeightedComplex(n=4, k=3, facets=((0, 1, 2),), weights=np.ones(1))
    entries = [{"s": list(s), "d": 1.0} for s in itertools.combinations(range(5), 3)]
    del entries[4]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"n": 5, "k": 3, "values": entries}))

    enumerate_simplices.cache_clear()
    weak = check_weak(d)
    strong = check_strong(d, exhaustive=True)
    F = frechet_embed(corpus.discrete_metric(5, 3).payload)
    eval_coboundary_metric(F, NormSpec(float("inf")))
    min_bounding_chain(values, zero_chain(5, 1))
    K = random_2hypertree(6, 0)
    mbc_metric(K)
    hypertree_to_l1(K)
    volume_metric(cloud, 3)
    eval_coboundary_metric(apex_extend_chain_matrix(volume_to_coboundary(cloud, 3)), NormSpec(2))
    support = strong.strong_witness.chain.support()
    for make in (corpus.subdivided_triangle, corpus.four_point_equilateral,
                 corpus.six_point_apex_discrete, corpus.subdivision_chain):
        make()
    corpus.discrete_metric(5, 3)
    corpus.perimeter_metric(cloud)
    corpus.max_side_metric(cloud)
    corpus.random_strong_metric(5, 3, seed=0)
    with pytest.raises(NotStrongError) as not_strong:
        frechet_embed(d)
    with pytest.raises(UnfillableBoundaryError) as unfilled:
        mbc_metric(unfillable)
    with pytest.raises(InputError) as missing:
        read_kmetric(str(path))
    assert enumerate_simplices.cache_info().currsize == 0

    assert weak.weak_violations and weak.pseudo_violations == ((1, 2, 3),)
    reported = [s + (y,) for s, y in weak.weak_violations] + list(weak.pseudo_violations)
    reported += [strong.strong_witness.simplex] + support
    reported += [s for s, _, _ in strong.strong_margins]
    assert {type(v) for s in reported for v in s} == {int}
    assert "at (0, 1, 2) is below" in str(not_strong.value)
    assert str(unfilled.value).endswith("no facet chain bounds (0, 1, 3)")
    assert missing.value.message == "1 of 10 tuples missing, first (0, 2, 4)"
    assert not_strong.value.simplex == (0, 1, 2)
    assert {type(v) for v in not_strong.value.simplex} == {int}


def test_index_rejects_non_canonical():
    for bad in [(1, 0), (0, 4), (1, 1), (), (0, 1.7, 3), (0, 2.0), (True, 2), (-1, 2)]:
        with pytest.raises(ValueError):
            simplex_index(4, bad)
        with pytest.raises(ValueError):
            validate_simplex(4, bad)
    for rows in [np.array([[0, 1], [1, 0]]), np.array([[0, 4]]), np.array([[0.0, 1.0]]),
                 np.array([[2, 2]])]:
        with pytest.raises(ValueError):
            simplex_index(4, rows)
    with pytest.raises(ValueError):
        indicator_chain(5, (0, 1.7, 3))
    assert validate_simplex(5, (np.int64(1), np.int32(3))) == (1, 3)


def test_orientation_sign_basics():
    assert orientation_sign((0, 1, 2)) == 1
    assert orientation_sign((1, 0, 2)) == -1
    assert orientation_sign((2, 0, 1)) == 1


def test_orientation_sign_rejects_repeats():
    with pytest.raises(ValueError):
        orientation_sign((1, 1, 2))


def test_orientation_sign_composes_with_permutations():
    rng = np.random.default_rng(7)
    base = (3, 0, 5, 2, 1)
    for _ in range(40):
        pi = rng.permutation(len(base))
        composed = tuple(base[i] for i in pi)
        pi_sign = orientation_sign(tuple(int(i) for i in pi))
        assert orientation_sign(composed) == pi_sign * orientation_sign(base)


def test_boundary_column_of_triangle():
    op = boundary_operator(3, 2)
    col = op.matrix[:, simplex_index(3, (0, 1, 2))]
    # faces in canonical order: (0,1), (0,2), (1,2)
    assert list(col) == [1, -1, 1]


def test_boundary_column_of_edge():
    op = boundary_operator(2, 1)
    col = op.matrix[:, 0]
    assert list(col) == [-1, 1]  # vertices (0), (1)


def test_boundary_matches_the_search_oracle():
    for n in range(2, 9):
        for dim in range(1, n):
            assert np.array_equal(boundary_operator(n, dim).matrix,
                                  boundary_matrix_reference(n, dim))


def test_face_table_and_gather_match_the_search_oracle():
    rng = np.random.default_rng(8)
    for n in range(2, 9):
        for dim in range(1, n):
            ref = boundary_matrix_reference(n, dim)
            rows = simplex_rows(n, dim)
            faces = face_ranks(n, rows)
            cols = np.arange(ref.shape[1])
            dense = np.zeros_like(ref)
            for i, face in enumerate(faces):
                dense[face, cols] += (-1) ** i
            assert faces.shape == (dim + 1, ref.shape[1])
            assert np.array_equal(dense, ref)
            X = rng.integers(-9, 10, size=(ref.shape[0], 3))
            assert np.array_equal(coboundary_rows(faces, X), ref.T @ X)  # exact on integers
            assert np.array_equal(coboundary_rows(faces, X[:, 0]), ref.T @ X[:, 0])
            # some rows in shuffled order give those columns, as the hypertree paths rank facets
            picked = rng.permutation(ref.shape[1])[: max(1, ref.shape[1] // 2)]
            assert np.array_equal(face_ranks(n, rows[picked]), faces[:, picked])


def test_face_table_scatter_matches_the_search_oracle():
    rng = np.random.default_rng(9)
    for n in range(2, 9):
        for dim in range(1, n):
            ref = boundary_matrix_reference(n, dim)
            x = rng.integers(-9, 10, size=ref.shape[1])
            out = boundary_rows(face_ranks(n, simplex_rows(n, dim)), x.astype(float), ref.shape[0])
            assert np.array_equal(out, ref @ x)  # exact on integers


def test_boundary_rejects_dim_zero():
    with pytest.raises(ValueError):
        boundary_operator(4, 0)


def test_dense_operators_refuse_over_the_byte_budget(monkeypatch):
    # n=200 k=3 passes MAX_SIMPLICES, but its boundary is 19,900 x 1,313,400 int64
    # (209 GB). Every allocation the builders make is stubbed out first, so a
    # builder without the budget check fails here instead of allocating.
    def refuse(*args, **kwargs):
        raise AssertionError("dense build before the byte budget")

    monkeypatch.setattr(simplicial, "face_ranks", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    assert comb(200, 3) <= MAX_SIMPLICES
    for build, dim in [(boundary_operator, 2), (coboundary_operator, 1)]:
        with pytest.raises(ValueError, match="dense operator needs 4.[12].e\\+11 bytes, budget"):
            build(200, dim)


def test_one_budget_refuses_every_dense_build(monkeypatch):
    # one patch of the one budget reaches every dense builder, on small inputs
    from kmetrics import (
        ChainMatrix, NormSpec, PointCloud, WeightedComplex, apex_extend_chain_matrix,
        check_strong, embed_l2_to_lp, frechet_embed, hypertree_to_l1, is_hypertree, mbc_metric,
        min_bounding_chain, random_2hypertree, random_project, volume_to_coboundary,
    )
    from kmetrics.corpus import discrete_metric

    monkeypatch.setattr(simplicial, "MAX_LP_BYTES", 0)
    d = discrete_metric(4, 3).payload
    K = WeightedComplex(n=4, k=3, facets=((0, 1, 2), (0, 1, 3), (0, 2, 3)), weights=np.ones(3))
    F = ChainMatrix(n=4, k=3, data=np.ones((6, 2)))
    cloud = PointCloud(np.arange(15.0).reshape(5, 3))
    builds = {
        "min_bounding_chain": lambda: min_bounding_chain(d.values, zero_chain(4, 1)),
        "check_strong": lambda: check_strong(d),
        "frechet_embed": lambda: frechet_embed(d),
        "mbc_metric": lambda: mbc_metric(K),
        "boundary_operator": lambda: boundary_operator(4, 2),
        "coboundary_operator": lambda: coboundary_operator(4, 1),
        "is_hypertree": lambda: is_hypertree(K),
        "hypertree_to_l1": lambda: hypertree_to_l1(K),
        "random_project": lambda: random_project(F, 3, NormSpec(2), seed=1),
        "embed_l2_to_lp": lambda: embed_l2_to_lp(F, 1.0, 0.5, seed=1),
        "volume_to_coboundary": lambda: volume_to_coboundary(cloud, 3),
        "random_2hypertree": lambda: random_2hypertree(5, 0),
        "apex_extend_chain_matrix": lambda: apex_extend_chain_matrix(F),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError, match="bytes, budget 0"):
            build()
            pytest.fail(f"{name} built past the budget")


def _patch_simplex_rows(monkeypatch, replacement):
    """Put replacement in place of simplex_rows in every kmetrics module that imports it."""
    import sys

    modules = [mod for name, mod in sys.modules.items()
               if name.startswith("kmetrics") and hasattr(mod, "simplex_rows")]
    assert {"simplicial", "metric", "coboundary", "hypertree"} <= {
        mod.__name__.rsplit(".", 1)[-1] for mod in modules}
    for mod in modules:
        monkeypatch.setattr(mod, "simplex_rows", replacement)


def test_the_lp_budget_refuses_before_anything_is_listed(monkeypatch):
    # n=200, k=3: 1,313,400 tuples pass MAX_SIMPLICES, but the bounding-chain
    # tableaux would take 4.2e+11 bytes (6.2e+9 on three facets); listing and
    # ranking the tuples first took seconds and a 100 MB peak before the refusal
    import tracemalloc

    from kmetrics import (
        WeightedComplex, check_strong, frechet_column, frechet_embed, mbc_metric,
        min_bounding_chain,
    )
    from kmetrics.corpus import discrete_metric, random_strong_metric

    d = discrete_metric(200, 3).payload
    K = WeightedComplex(n=200, k=3, facets=((0, 1, 2), (0, 1, 3), (1, 2, 3)), weights=np.ones(3))
    target = zero_chain(200, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("simplices listed before the byte budget")

    _patch_simplex_rows(monkeypatch, refuse)
    builds = {
        "check_strong": lambda: check_strong(d),
        "frechet_embed": lambda: frechet_embed(d),
        "frechet_column": lambda: frechet_column(d, (0, 1, 2)),
        "min_bounding_chain": lambda: min_bounding_chain(d.values, target),
        "mbc_metric": lambda: mbc_metric(K),
        "random_strong_metric": lambda: random_strong_metric(200, 3, 0),
    }
    for name, build in builds.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bounding-chain LP needs .* bytes, budget"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name.startswith(("check_strong", "frechet")):  # the others draw or check C(n,k) weights
            assert peak < 2**20, (name, peak)


def test_each_library_path_lists_the_canonical_order_at_most_once(monkeypatch):
    from kmetrics import (
        KMetric, check_strong, check_weak, frechet_column, hypertree_to_l1, is_hypertree,
        random_2hypertree,
    )

    d = KMetric(n=6, k=3, values=np.ones(comb(6, 3)))
    K = random_2hypertree(6, 0)
    calls = []

    def counted(n, dim):
        calls.append((n, dim))
        return simplex_rows(n, dim)

    _patch_simplex_rows(monkeypatch, counted)
    runs = {
        "check_weak": (lambda: check_weak(d), 1),
        "check_strong": (lambda: check_strong(d, exhaustive=True), 3),
        "random_2hypertree": (lambda: random_2hypertree(6, 0), 1),
        "is_hypertree": (lambda: is_hypertree(K), 0),
        "hypertree_to_l1": (lambda: hypertree_to_l1(K), 0),
        "frechet_column": (lambda: frechet_column(d, (0, 2, 5)), 1),
        "frechet_column twice": (
            lambda: [frechet_column(d, t) for t in [(0, 1, 2), (3, 4, 5)]], 2),
    }
    for name, (run, expected) in runs.items():
        calls.clear()
        run()
        assert len(calls) == expected, (name, calls)


def test_boundary_squares_to_zero():
    for n in range(3, 9):
        for dim in range(2, min(4, n)):
            outer = boundary_operator(n, dim - 1).matrix
            inner = boundary_operator(n, dim).matrix
            assert not (outer @ inner).any()  # exact, integer entries


def test_coboundary_is_transpose():
    for n, dim in [(3, 1), (5, 1), (6, 2)]:
        delta = coboundary_operator(n, dim - 1).matrix
        assert np.array_equal(delta, boundary_operator(n, dim).matrix.T)


def test_coboundary_squares_to_zero():
    for n in [4, 5]:
        first = coboundary_operator(n, 0).matrix
        second = coboundary_operator(n, 1).matrix
        assert not (second @ first).any()


def test_coboundary_range_errors():
    with pytest.raises(ValueError):
        coboundary_operator(3, 2)


def test_coboundary_of_all_ones_edges():
    # the single triangle row sums its edges with alternating signs: 1 - 1 + 1
    ones = Chain(n=3, dim=1, coeffs=np.ones(3))
    out = apply_operator(coboundary_operator(3, 1), ones)
    assert out.coeffs.shape == (1,)
    assert out.coeffs[0] == 1


def test_apply_single_column():
    chain = indicator_chain(4, (0, 1, 2))
    out = apply_operator(boundary_operator(4, 2), chain)
    assert out.dim == 1
    assert out.coeffs[simplex_index(4, (1, 2))] == 1
    assert out.coeffs[simplex_index(4, (0, 2))] == -1
    assert out.coeffs[simplex_index(4, (0, 1))] == 1
    assert np.count_nonzero(out.coeffs) == 3


def test_apply_zero_chain():
    out = apply_operator(boundary_operator(5, 1), zero_chain(5, 1))
    assert not out.coeffs.any()


def test_kept_boundary_block_matches_the_search_oracle():
    # the kept rows are the faces that miss vertex 0, which come last in canonical order
    rng = np.random.default_rng(10)
    for n in range(2, 9):
        for dim in range(1, min(n, 5)):
            ref = boundary_matrix_reference(n, dim)
            full = boundary_operator(n, dim).matrix
            faces = face_ranks(n, simplex_rows(n, dim))
            first = comb(n - 1, dim - 1)
            lower = enumerate_simplices(n, dim - 1)
            assert all(0 in f for f in lower[:first]) and all(0 not in f for f in lower[first:])
            every = np.arange(ref.shape[1])
            for cols in (every, np.flatnonzero(rng.uniform(size=every.size) < 0.5), every[::-3]):
                block = boundary_block(faces[:, cols], ref.shape[0], first)
                assert block.dtype == float
                assert np.array_equal(block, ref[first:, cols])
                assert np.array_equal(block, full[first:, cols])


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_operator(boundary_operator(4, 2), zero_chain(4, 1))
    with pytest.raises(ValueError):
        apply_operator(boundary_operator(4, 2), zero_chain(5, 2))


def test_subdivision_chain_bounds_the_big_triangle():
    """The seven small triangles glue into a disc with the same boundary."""
    alpha = chain_from_dict(6, 2, {t: 1.0 for t in SUBDIVISION})
    bd = boundary_operator(6, 2)
    lhs = apply_operator(bd, alpha)
    rhs = apply_operator(bd, indicator_chain(6, (0, 1, 2)))
    assert np.array_equal(lhs.coeffs, rhs.coeffs)


def test_indicator_orientation_signs():
    fwd = indicator_chain(5, (1, 3, 4))
    rev = indicator_chain(5, (3, 1, 4))
    assert np.array_equal(fwd.coeffs, -rev.coeffs)


def test_chain_from_dict_accumulates():
    c = chain_from_dict(4, 1, {(0, 1): 1.0, (1, 0): 1.0})
    assert not c.coeffs.any()  # opposite orientations cancel


def test_chain_validates_length():
    with pytest.raises(ValueError):
        Chain(n=4, dim=1, coeffs=np.zeros(5))


def test_replacement_simplices_share_the_boundary():
    """Swapping each vertex of t for y gives chains whose boundaries sum to
    the boundary of t itself; this is the algebra behind the one-point
    replacement inequality."""
    rng = np.random.default_rng(3)
    for n in range(3, 8):
        for k in range(2, n):
            bd = boundary_operator(n, k - 1)
            for _ in range(6):
                picks = rng.choice(n, size=k + 1, replace=False)
                t, y = tuple(sorted(int(v) for v in picks[:k])), int(picks[k])
                total = np.zeros(bd.matrix.shape[0])
                for i in range(k):
                    replaced = t[:i] + (y,) + t[i + 1 :]
                    total += apply_operator(
                        bd, indicator_chain(n, replaced)
                    ).coeffs
                want = apply_operator(bd, indicator_chain(n, t)).coeffs
                assert np.array_equal(total, want)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chain_refuses_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="finite"):
        chain_from_dict(3, 1, {(0, 1): value})
