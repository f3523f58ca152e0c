"""Facet complexes: bounding-chain metrics, hypertree checks, 1-norm tables."""

import hashlib
from itertools import combinations
from math import comb

import numpy as np
import pytest

from kmetrics import (
    NormSpec,
    NotHypertreeError,
    UnfillableBoundaryError,
    WeightedComplex,
    apply_operator,
    boundary_operator,
    check_strong,
    cycle_space_dim,
    enumerate_simplices,
    eval_coboundary_metric,
    hypertree_to_l1,
    indicator_chain,
    is_hypertree,
    mbc_metric,
    min_bounding_chain,
    random_2hypertree,
    random_spanning_tree,
)
from kmetrics.simplicial import MAX_LP_BYTES, boundary_block, face_ranks
from oracles import cycle_space_dim_by_rank, dijkstra_all_pairs, random_2hypertree_by_deletion

SUBDIVISION = ((0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5), (3, 4, 5))


def _graph(n, edges, weights):
    return WeightedComplex(n=n, k=2, facets=tuple(edges), weights=np.asarray(weights, float))


def _star(n):
    """The triangles through vertex 0: the cone over the complete graph on the rest."""
    facets = tuple((0, i, j) for i, j in combinations(range(1, n), 2))
    return WeightedComplex(n=n, k=3, facets=facets, weights=np.ones(len(facets)))


def test_complex_validation():
    with pytest.raises(ValueError):
        _graph(3, [(0, 1), (0, 1)], [1.0, 1.0])  # duplicate facet
    with pytest.raises(ValueError):
        _graph(3, [(0, 1)], [0.0])  # weight must be positive
    with pytest.raises(ValueError):
        _graph(3, [(0, 1, 2)], [1.0])  # arity mismatch
    with pytest.raises(ValueError):
        WeightedComplex(n=3, k=2, facets=(), weights=np.array([]))
    with pytest.raises(ValueError, match="arity"):
        WeightedComplex(n=3, k=1, facets=((0,),), weights=np.ones(1))
    with pytest.raises(ValueError, match="n >= k"):
        WeightedComplex(n=2, k=3, facets=((0, 1),), weights=np.ones(1))
    with pytest.raises(ValueError, match="expected 2 weights"):
        _graph(3, [(0, 1), (1, 2)], [1.0])
    with pytest.raises(ValueError, match="vertices"):
        random_spanning_tree(1, 0)
    with pytest.raises(ValueError, match="vertices"):
        random_2hypertree(2, 0)


def test_path_graph_metric():
    K = _graph(3, [(0, 1), (1, 2)], [1.0, 1.0])
    d = mbc_metric(K)
    assert d.value((0, 1)) == pytest.approx(1.0)
    assert d.value((1, 2)) == pytest.approx(1.0)
    assert d.value((0, 2)) == pytest.approx(2.0)


def test_subdivision_facets_give_cost_seven():
    # the disc of seven triangles cannot fill every tuple on 6 vertices,
    # so ask only for the outer triangle it was built to bound
    K = WeightedComplex(n=6, k=3, facets=SUBDIVISION, weights=np.ones(7))
    weights = np.zeros(comb(6, 3))
    weights[K.facet_indices()] = K.weights
    target = apply_operator(boundary_operator(6, 2), indicator_chain(6, (0, 1, 2)))
    cost, chain = min_bounding_chain(weights, target, mask=K.facet_indices())
    assert cost == pytest.approx(7.0, abs=1e-9)
    assert sorted(chain.support()) == sorted(tuple(sorted(t)) for t in SUBDIVISION)
    with pytest.raises(UnfillableBoundaryError):
        mbc_metric(K)  # tuples off the disc have no facet-supported chain


def test_complete_triangle_facets_unit_weights():
    facets = tuple(combinations(range(5), 3))
    K = WeightedComplex(n=5, k=3, facets=facets, weights=np.ones(len(facets)))
    d = mbc_metric(K)
    assert np.allclose(d.values, 1.0, atol=1e-9)


def test_mbc_metric_unfillable_target():
    # single triangle cannot bound tuples touching vertex 3
    K = WeightedComplex(n=4, k=3, facets=((0, 1, 2),), weights=np.ones(1))
    with pytest.raises(UnfillableBoundaryError) as err:
        mbc_metric(K)
    assert "does not fill" in str(err.value)
    assert str(err.value).endswith("bounds (0, 1, 3)")


def test_mbc_metric_matches_dijkstra_on_graphs():
    rng = np.random.default_rng(35)
    for trial in range(8):
        n = int(rng.integers(3, 7))
        edges = list(combinations(range(n), 2))
        keep = [e for e in edges if rng.uniform() < 0.7]
        # always keep a spanning path so the graph is connected
        for i in range(n - 1):
            if (i, i + 1) not in keep:
                keep.append((i, i + 1))
        keep = sorted(set(keep))
        w = {e: float(rng.uniform(0.2, 2.0)) for e in keep}
        K = _graph(n, keep, [w[e] for e in keep])
        d = mbc_metric(K)
        dist = dijkstra_all_pairs(n, w)
        for i, j in combinations(range(n), 2):
            assert d.value((i, j)) == pytest.approx(dist[i, j], abs=1e-8), trial


def test_mbc_metric_is_strong():
    rng = np.random.default_rng(37)
    for n, k in [(5, 2), (5, 3), (6, 3)]:
        facets = tuple(combinations(range(n), k))
        K = WeightedComplex(
            n=n, k=k, facets=facets, weights=rng.uniform(0.5, 2.0, size=len(facets))
        )
        assert check_strong(mbc_metric(K)).is_strong


def test_mbc_metric_monotone_under_facet_addition():
    rng = np.random.default_rng(39)
    base_edges = [(0, 1), (1, 2), (2, 3)]
    K1 = _graph(4, base_edges, [1.0, 1.0, 1.0])
    K2 = _graph(4, base_edges + [(0, 3)], [1.0, 1.0, 1.0, 0.5])
    d1, d2 = mbc_metric(K1), mbc_metric(K2)
    assert (d2.values <= d1.values + 1e-9).all()
    assert d2.value((0, 3)) == pytest.approx(0.5)


def test_spanning_tree_is_hypertree():
    K = random_spanning_tree(4, seed=0)
    report = is_hypertree(K)
    assert report.is_hypertree and report.acyclic and report.fills_cycles
    assert report.facet_count == 3
    assert report.cycle_space_dim == 3


def test_cycle_graph_is_not_acyclic():
    K = _graph(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
    report = is_hypertree(K)
    assert not report.acyclic
    assert report.fills_cycles
    assert not report.is_hypertree


def test_disconnected_graph_does_not_fill():
    K = _graph(4, [(0, 1), (2, 3)], [1.0, 1.0])
    report = is_hypertree(K)
    assert report.acyclic
    assert not report.fills_cycles


def test_all_but_one_triangle_on_four_vertices():
    # the four triangles have a single dependency, so dropping any one of
    # them leaves an independent facet set that still spans the edge cycles
    assert cycle_space_dim(4, 2) == 1
    facets = tuple(combinations(range(4), 3))[:-1]
    K = WeightedComplex(n=4, k=3, facets=facets, weights=np.ones(3))
    report = is_hypertree(K)
    assert report.is_hypertree
    assert report.facet_rank == 3
    assert report.cycle_space_dim == 3


def test_facet_rank_equals_the_rank_of_the_full_facet_columns():
    # half the subsets have exactly cycle_space_dim facets, so both verdicts occur
    rng = np.random.default_rng(41)
    for n, k in [(6, 2), (6, 3), (7, 4)]:
        full = boundary_operator(n, k - 1).matrix.astype(float)
        simplices = enumerate_simplices(n, k - 1)
        cyc = cycle_space_dim(n, k - 2)
        verdicts = set()
        for trial in range(200):
            size = cyc if trial % 2 else int(rng.integers(1, len(simplices) + 1))
            cols = np.sort(rng.choice(len(simplices), size=size, replace=False))
            facets = tuple(simplices[j] for j in cols)
            report = is_hypertree(WeightedComplex(n=n, k=k, facets=facets, weights=np.ones(size)))
            assert report.facet_rank == np.linalg.matrix_rank(full[:, cols], tol=1e-9)
            verdicts.add(report.is_hypertree)
        assert verdicts == {True, False}


def test_cycle_space_dims():
    assert cycle_space_dim(5, 0) == 4
    assert cycle_space_dim(5, 1) == comb(4, 2)
    assert cycle_space_dim(6, 2) == comb(5, 3)
    for n in range(1, 10):
        for dim in range(n):
            assert cycle_space_dim(n, dim) == cycle_space_dim_by_rank(n, dim)
    for n, dim in [(4, 4), (4, -1), (0, 0)]:
        with pytest.raises(ValueError):
            cycle_space_dim(n, dim)


def test_star_tree_l1_table():
    K = _graph(4, [(0, 1), (0, 2), (0, 3)], [1.0, 1.0, 1.0])
    F = hypertree_to_l1(K)
    d = eval_coboundary_metric(F, NormSpec(1))
    want = mbc_metric(K)
    assert np.allclose(d.values, want.values, atol=1e-8)
    assert d.value((1, 2)) == pytest.approx(2.0)


def test_weighted_path_l1_table():
    K = _graph(4, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 3.0])
    d = eval_coboundary_metric(hypertree_to_l1(K), NormSpec(1))
    assert d.value((0, 3)) == pytest.approx(6.0, abs=1e-8)


def test_2hypertree_l1_round_trip():
    for seed in range(3):
        K = random_2hypertree(5, seed=seed)
        assert is_hypertree(K).is_hypertree
        d = eval_coboundary_metric(hypertree_to_l1(K), NormSpec(1))
        want = mbc_metric(K)
        assert np.allclose(d.values, want.values, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("exponent", range(-12, 13))
def test_l1_round_trip_holds_at_every_scale(exponent):
    K = random_2hypertree(6, seed=1)
    base = eval_coboundary_metric(hypertree_to_l1(K), NormSpec(1)).values
    lam = 10.0**exponent
    scaled = WeightedComplex(n=K.n, k=K.k, facets=K.facets, weights=lam * K.weights)
    d = eval_coboundary_metric(hypertree_to_l1(scaled), NormSpec(1))
    assert np.allclose(d.values, lam * base, rtol=1e-12, atol=0.0)


def test_random_2hypertree_matches_the_deletion_oracle():
    for n in range(3, 13):
        for seed in range(3):
            K = random_2hypertree(n, seed)
            facets, weights = random_2hypertree_by_deletion(n, seed)
            assert K.facets == facets
            assert np.array_equal(K.weights, weights)


def test_random_2hypertree_draws_what_it_drew_before():
    # the benchmark's hypertree_l1 workload draws its complexes here: its facets
    # and weights for n = 3..30, seeds 0..2, by one digest of their bytes
    digest = hashlib.sha256()
    for n in range(3, 31):
        for seed in range(3):
            K = random_2hypertree(n, seed)
            digest.update(np.array(K.facets, dtype="<i8").tobytes())
            digest.update(np.asarray(K.weights, dtype="<f8").tobytes())
    assert digest.hexdigest() == (
        "622dfec70181be9ed32051c7dad8718a8525ca536fcceca5d369aaefd24d2195")


def test_random_tree_l1_round_trips():
    for seed in range(6):
        n = 4 + (seed % 5)
        K = random_spanning_tree(n, seed=seed)
        d = eval_coboundary_metric(hypertree_to_l1(K), NormSpec(1))
        want = mbc_metric(K)
        assert np.allclose(d.values, want.values, rtol=1e-6, atol=1e-8)


def test_l1_columns_vanish_on_the_faces_through_vertex_zero():
    for K in (random_spanning_tree(9, seed=2), random_2hypertree(8, seed=1), _star(7)):
        F = hypertree_to_l1(K)
        through_zero = [0 in f for f in enumerate_simplices(K.n, K.k - 2)]
        assert not F.data[through_zero].any()
        d = eval_coboundary_metric(F, NormSpec(1))
        assert np.allclose(d.values, mbc_metric(K).values, rtol=1e-9, atol=0.0)


def test_tree_columns_are_the_cut_embedding():
    # column e is w_e on the vertices that e separates from vertex 0, signed
    # so that its coboundary on e = (u, v), F(v) - F(u), is +w_e
    for seed in range(6):
        K = random_spanning_tree(10, seed=seed)
        F = hypertree_to_l1(K).data
        for j, ((u, v), w) in enumerate(zip(K.facets, K.weights)):
            near, stack = {0}, [0]
            while stack:
                a = stack.pop()
                for i, (x, y) in enumerate(K.facets):
                    b = y if x == a else x if y == a else None
                    if i != j and b is not None and b not in near:
                        near.add(b)
                        stack.append(b)
            want = np.array([0.0 if x in near else w for x in range(K.n)])
            assert np.allclose(F[:, j], want if u in near else -want, rtol=1e-12, atol=1e-12)


def test_a_hypertree_block_over_the_byte_budget_is_refused_before_allocating():
    # n=200: the 19,701 triangles through vertex 0 are a hypertree, but their
    # square kept block alone would take 3.1 GB
    import tracemalloc

    assert is_hypertree(_star(7)).is_hypertree
    K = _star(200)
    tracemalloc.start()
    try:
        for check in (is_hypertree, hypertree_to_l1):
            with pytest.raises(ValueError, match="budget"):
                check(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_LP_BYTES / 10


def test_l1_peak_is_within_its_byte_request(monkeypatch):
    # n=60: F and three 1,711 x 1,711 blocks are traced, about 90 MiB; a kept
    # block held through the residual would make it 112 MiB.  The request also
    # counts the block's two LAPACK copies in the solve, which are not traced
    import tracemalloc

    from kmetrics import hypertree

    requests, check = [], hypertree._check_bytes
    monkeypatch.setattr(hypertree, "_check_bytes",
                        lambda what, needed: (requests.append(needed), check(what, needed)))
    K = _star(60)  # the peak depends on the sizes alone; the star is the quickest to build
    tracemalloc.start()
    try:
        hypertree_to_l1(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(requests) == 1
    assert peak < 100 * 2**20 and peak <= requests[0]


def test_random_2hypertree_over_the_byte_budget_is_refused_before_allocating():
    # n=200: the Gram-Schmidt basis would be 19,900 x 19,701 floats, 3.1 GB
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="Gram-Schmidt basis needs 3.14e\\+09 bytes, budget"):
            random_2hypertree(200, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_LP_BYTES / 10


def test_l1_rejects_non_hypertrees():
    K = _graph(3, [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
    with pytest.raises(NotHypertreeError):
        hypertree_to_l1(K)


def test_l1_refuses_a_solve_that_misses_its_residual(monkeypatch):
    # a hypertree whose square solve comes back off by 1e-3 relative: the
    # residual check, not the rank, must refuse it
    K = random_2hypertree(8, 0)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-3))
    with pytest.raises(NotHypertreeError, match="residual"):
        hypertree_to_l1(K)


def _swaps(n, seed, count):
    """Facet sets of random_2hypertree(n, seed) with one facet swapped for another triangle."""
    K = random_2hypertree(n, seed)
    rng = np.random.default_rng(seed)
    triangles = enumerate_simplices(n, 2)
    for _ in range(count):
        new = triangles[int(rng.integers(len(triangles)))]
        if new not in K.facets:
            out = int(rng.integers(len(K.facets)))
            yield tuple(sorted(K.facets[:out] + K.facets[out + 1:] + (new,)))


def _kept_block(K):
    """The facet columns of the boundary, on the rows of the faces that miss vertex 0."""
    n, k = K.n, K.k
    return boundary_block(face_ranks(n, np.array(K.facets)), comb(n, k - 1), comb(n - 1, k - 2))


def _lu_flags(K):
    try:
        np.linalg.solve(_kept_block(K).T, np.eye(len(K.facets)))
    except np.linalg.LinAlgError:
        return True
    return False


def test_l1_verdict_matches_the_rank():
    # count, solve and residual decide what is_hypertree's SVD rank decides, with
    # facet weights spread over 1e-6..1e6, on every equal-count set at (5, 3) and
    # (6, 2) and on swaps, some of them singular blocks that LU does not flag
    rng = np.random.default_rng(18)
    sets = [(n, k, f) for n, k in [(5, 3), (6, 2)]
            for f in combinations(enumerate_simplices(n, k - 1), cycle_space_dim(n, k - 2))]
    sets += [(n, 3, f) for n in (8, 12, 16, 20, 25) for seed in range(2)
             for f in _swaps(n, seed, 6)]
    verdicts, unflagged = set(), 0
    for n, k, facets in sets:
        weights = 10.0 ** rng.uniform(-6, 6, len(facets))
        K = WeightedComplex(n=n, k=k, facets=facets, weights=weights)
        hypertree = is_hypertree(K).is_hypertree
        weightings = [K]
        if not hypertree and not _lu_flags(K):
            unflagged += 1
            # the facet cycle light and the rest heavy: a residual measured
            # against the largest weight alone would pass this one
            cycle = np.abs(np.linalg.svd(_kept_block(K))[2][-1]) > 1e-8
            light = np.where(cycle, 1e-6, 1e6)
            weightings.append(WeightedComplex(n=n, k=k, facets=facets, weights=light))
        for L in weightings:
            try:
                hypertree_to_l1(L)
                accepted = True
            except NotHypertreeError as exc:
                assert str(exc).startswith(("not a hypertree", "facet system residual"))
                accepted = False
            assert accepted == hypertree, (n, k, facets)
        verdicts.add(hypertree)
    assert verdicts == {True, False}
    assert unflagged > 0


def test_generators_are_deterministic():
    a = random_spanning_tree(6, seed=4)
    b = random_spanning_tree(6, seed=4)
    assert a.facets == b.facets
    assert np.array_equal(a.weights, b.weights)
    c = random_2hypertree(5, seed=2)
    d = random_2hypertree(5, seed=2)
    assert c.facets == d.facets
