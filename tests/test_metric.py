import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blockembed import metric
from blockembed.blocks import lp_distance_matrix
from blockembed.fixtures import random_graph_metric
from blockembed.lp_coarse import LpPointSet, net_round
from blockembed.metric import (
    _BLOCK_PAIRS,
    AsymmetricMatrix,
    LengthMismatch,
    MetricError,
    NegativeEntry,
    NonzeroDiagonal,
    TooFewPoints,
    TriangleViolation,
    ZeroOffDiagonal,
    greedy_maximal_net,
    min_positive_distance,
    moduli_profile,
    validate_metric,
    verify_bounds,
)

import oracles


def euclid(images):
    """Euclidean distance matrix of a list of coordinate vectors."""
    return lp_distance_matrix(np.array(images, dtype=float), 2.0)


@st.composite
def integer_metrics(draw):
    """Integer shortest-path metrics on 1..9 points, so ties at a radius are common."""
    n = draw(st.integers(1, 9))
    weights = draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n))
    return oracles.shortest_path_metric([weights[i * n : (i + 1) * n] for i in range(n)])


def line_space(coords):
    """1-D point set as a metric space."""
    a = np.asarray(coords, dtype=float)
    return validate_metric(np.abs(a[:, None] - a[None, :]))


class TestValidate:
    def test_smallest_valid(self):
        sp = validate_metric([[0, 1], [1, 0]])
        assert sp.n_points == 2
        assert sp.labels == ("p0", "p1")
        assert sp.dist[0, 1] == 1.0

    def test_asymmetric(self):
        with pytest.raises(AsymmetricMatrix) as err:
            validate_metric([[0, 1], [2, 0]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_triangle_violation_names_triple(self):
        with pytest.raises(TriangleViolation) as err:
            validate_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as err:
            validate_metric([[0, -1], [-1, 0]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal) as err:
            validate_metric([[1, 2], [2, 0]])
        assert err.value.i == 0

    def test_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonal) as err:
            validate_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_not_square(self):
        with pytest.raises(MetricError):
            validate_metric([[0, 1, 2], [1, 0, 1]])

    def test_not_finite(self):
        with pytest.raises(MetricError):
            validate_metric([[0, math.inf], [math.inf, 0]])

    def test_label_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_metric([[0, 1], [1, 0]], labels=["a"])

    def test_nan_tolerance_raises(self):
        # every comparison with a NaN bound is False, so a NaN tol would
        # accept this violation
        with pytest.raises(ValueError, match="tol") as err:
            validate_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]], tol=math.nan)
        assert not isinstance(err.value, MetricError)

    def test_hairline_tolerance_default_vs_exact(self):
        # a triangle tight up to one float ulp: accepted by default,
        # rejected by the exact check
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[0, 2] = d[2, 0] = 2.0 + 4e-16
        validate_metric(d)
        with pytest.raises(TriangleViolation):
            validate_metric(d, tol=0.0)

    def test_default_tolerance_scales_below_one(self):
        # d(0,2) = 3e-13 > d(0,1) + d(1,2) = 2e-13: a slack of 1e-12 would hide it
        d = [[0, 1e-13, 3e-13], [1e-13, 0, 1e-13], [3e-13, 1e-13, 0]]
        with pytest.raises(TriangleViolation) as err:
            validate_metric(d)
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_agrees_with_triple_loop(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            pts = rng.uniform(0, 4, size=(10, 2))
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            np.fill_diagonal(d, 0.0)
            if trial % 3 == 0:
                i, j = rng.integers(0, 10, size=2)
                if i != j:
                    d[i, j] = d[j, i] = d[i, j] * 3 + 1  # break the triangle
            tol = 1e-12 * float(d.max())
            expected = oracles.brute_triangle_violation(d.tolist(), tol)
            if expected is None:
                validate_metric(d)
            else:
                with pytest.raises(TriangleViolation) as err:
                    validate_metric(d)
                assert (err.value.i, err.value.j, err.value.k) == expected


@st.composite
def symmetric_matrices(draw):
    """(matrix, tol): a symmetric matrix with a positive off-diagonal at one
    of several scales, sometimes with one triangle planted within four ulps
    of the slack, and a tol of None (the default), 0.0 or -1e-3."""
    n = draw(st.integers(0, 8))
    scale = draw(st.sampled_from([1e-300, 1e-13, 1.0, 1e300]))
    # entries in [1, 2] satisfy every triangle; from 0.05 up, many do not
    low = draw(st.sampled_from([0.05, 1.0]))
    # full random mantissas, so that sums round and the margin is exercised
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.triu(rng.uniform(low, 2.0, size=(n, n)), 1) * scale
    a = a + a.T
    tol = draw(st.sampled_from([None, 0.0, -1e-3]))
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        base = a[i, k] + a[k, j]
        rest = max(float(a.max()), base)
        target = base + (1e-12 * rest if tol is None else tol)
        if tol is None:  # the planted entry may set the default slack itself
            target = base + 1e-12 * max(rest, target)
        target += draw(st.integers(-4, 4)) * np.spacing(target)
        if target > 0:
            a[i, j] = a[j, i] = target
    return a, tol


@st.composite
def planted_paths(draw):
    """(n, i, j, value): a path on n points of 100..260 whose d(i,j) is set
    to value, below, at or above the path distance."""
    n = draw(st.integers(100, 260))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    value = draw(st.sampled_from([0.5, abs(i - j) / 2 + 1.0, float(abs(i - j)), abs(i - j) + 1.0]))
    return n, i, j, value


@st.composite
def faulty_matrices(draw):
    """A symmetric matrix of 0..150 points (past one strip of the symmetry
    check) with up to three planted faults: non-finite, negative,
    asymmetric, diagonal or zero entries at random places."""
    n = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.triu(rng.uniform(1.0, 2.0, size=(n, n)), 1)
    a = a + a.T
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j = (int(x) for x in rng.integers(0, n, 2))
        kind = draw(st.sampled_from(["nan", "inf", "negative", "asymmetric", "diagonal", "zero"]))
        if kind == "diagonal":
            a[i, i] = 0.5
        elif kind == "asymmetric":
            a[i, j] = np.nextafter(a[i, j], 3.0)
        else:
            value = {"nan": math.nan, "inf": -math.inf, "negative": -1.0, "zero": 0.0}[kind]
            a[i, j] = a[j, i] = value
    return a


class TestCheckedEntries:
    """The one-pass entry checks against the former ones."""

    @given(faulty_matrices())
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_as_the_former_checks(self, a):
        try:
            expected = oracles.checked_entries(a)
        except MetricError as err:
            with pytest.raises(type(err)) as got:
                metric._checked_entries(a)
            assert (got.value.args, vars(got.value)) == (err.args, vars(err))
        else:
            assert np.array_equal(metric._checked_entries(a), expected)

    @given(faulty_matrices())
    @settings(max_examples=100, deadline=None)
    def test_min_positive_distance_is_the_off_diagonal_min(self, a):
        try:
            space = validate_metric(a)
        except MetricError:
            return
        if len(a) < 2:
            return
        expected = np.min(a, initial=math.inf, where=~np.eye(len(a), dtype=bool))
        assert np.array_equal(min_positive_distance(space), expected, equal_nan=True)


class TestTriangleSlack:
    """The triangle slack a validated space records bounds its defects."""

    @given(symmetric_matrices(), st.sampled_from([None, 0.5, 10.0]))
    @settings(max_examples=400, deadline=None)
    def test_bounds_every_exact_defect(self, case, other):
        # the matrices' own tol plants triangles within ulps of it
        a, tol = case
        tol = other if tol == -1e-3 else tol
        try:
            space = validate_metric(a, tol=tol)
        except MetricError:
            return
        assert space.triangle_slack >= 0.0
        assert space.triangle_slack >= oracles.exact_triangle_defect(a)

    def test_accepted_defect_is_covered(self):
        a = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert validate_metric(a, tol=1.0).triangle_slack >= 1.0

    @pytest.mark.parametrize("tol", [3.0, 1e308, math.inf])
    def test_no_slack_exceeds_the_largest_distance(self, tol):
        # every defect d(i,j) - d(i,k) - d(k,j) is at most d(i,j)
        a = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert validate_metric(a, tol=tol).triangle_slack == 3.0


class TestConstruction:
    """A FiniteMetricSpace checks its shape, dtype and slack, and nothing else."""

    def test_slack_is_required(self):
        with pytest.raises(TypeError):
            metric.FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_slack_must_be_finite_and_non_negative(self, slack):
        with pytest.raises(MetricError, match="triangle slack"):
            metric.FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), slack)

    @pytest.mark.parametrize("dtype", [int, np.float32, np.longdouble, object])
    def test_matrix_must_be_float64(self, dtype):
        with pytest.raises(MetricError, match="float64"):
            metric.FiniteMetricSpace(("a", "b"), np.array([[0, 1], [1, 0]], dtype=dtype), 0.0)

    def test_only_the_checks_build_a_space(self):
        # validate_metric and LpPointSet.metric_space both wrap their checked
        # matrix through metric._labelled, the one place that builds a space
        callers = []
        for path in sorted(Path(metric.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            scopes = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for call in ast.walk(tree):
                if isinstance(call, ast.Call) and ast.unparse(call.func).endswith(
                    "FiniteMetricSpace"
                ):
                    inside = [f.name for f in scopes if f.lineno <= call.lineno <= f.end_lineno]
                    callers.append((path.name, inside[-1] if inside else None))
        assert callers == [("metric.py", "_labelled")]


class TestTriangleFilter:
    """The min-plus filter in front of the triangle scan against the scan alone."""

    @given(symmetric_matrices())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_the_scan(self, case):
        a, tol = case
        effective = 1e-12 * float(a.max(initial=0.0)) if tol is None else tol
        expected = oracles.scan_triangle_violation(a, effective)
        if expected is None:
            validate_metric(a, tol=tol)
            return
        with pytest.raises(MetricError) as err:
            validate_metric(a, tol=tol)
        e = err.value
        assert type(e) is TriangleViolation
        assert (e.i, e.j, e.k, e.lhs, e.rhs) == expected

    def test_flag_the_scan_does_not_confirm_is_accepted(self):
        # an excess of one ulp of 2 (4.4e-16): inside the filter's margin of
        # tol - 16 ulps of 1, but not beyond tol for the exact scan
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d[0, 2] = d[2, 0] = np.nextafter(2.0, 3.0)
        assert oracles.scan_triangle_violation(d, 5e-16) is None
        validate_metric(d, tol=5e-16)

    @pytest.mark.parametrize("tol", [None, 0.0, -2e307])
    @pytest.mark.parametrize(
        "d",
        [
            [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]],
            [[0, 1.7e308, 0.9e308], [1.7e308, 0, 0.9e308], [0.9e308, 0.9e308, 0]],
        ],
        ids=["equilateral", "overflowing-sum"],
    )
    def test_sums_past_the_largest_double(self, d, tol):
        # d(i,k) + d(k,j) overflows: the filter still flags what the scan
        # rejects, silently (every warning fails the run)
        a = np.array(d, dtype=float)
        effective = 1e-12 * float(a.max()) if tol is None else tol
        try:
            metric._scan_triangles(a, effective, 0)
            expected = None
        except TriangleViolation as err:
            expected = (err.i, err.j, err.k)
        if expected is None:
            validate_metric(d, tol=tol)
            return
        with pytest.raises(TriangleViolation) as err:
            validate_metric(d, tol=tol)
        assert (err.value.i, err.value.j, err.value.k) == expected

    @given(
        st.integers(3, 8),
        st.sampled_from([0.05, 0.5]),
        st.sampled_from([None, 0.0, -1e-3, -2e307, -1.5e308]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_outcome_as_the_scan_near_the_largest_double(self, n, low, tol, tiny, seed):
        # entries up to 0.9 of the largest double, so most sums overflow; an
        # odd multiple of the smallest subnormal does not halve exactly
        rng = np.random.default_rng(seed)
        a = np.triu(rng.uniform(low, 0.9, size=(n, n)), 1) * np.finfo(float).max
        if tiny:
            a[0, 1] = math.ldexp(6071.0, -1074)
        a = a + a.T
        effective = 1e-12 * float(a.max()) if tol is None else tol
        with np.errstate(over="ignore"):
            expected = oracles.scan_triangle_violation(a, effective)
        if expected is None:
            validate_metric(a, tol=tol)
            return
        with pytest.raises(TriangleViolation) as err:
            validate_metric(a, tol=tol)
        e = err.value
        assert (e.i, e.j, e.k, e.lhs, e.rhs) == expected


    @pytest.mark.parametrize("tol", [None, 0.0, -0.5], ids=["default", "zero", "minus-half-max"])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 2.0**1023], ids=["1e-300", "1", "halved"])
    def test_pairs_on_the_screen_boundary(self, scale, tol):
        # d(i,j) equal to fl(r_i + r_j), or 1 ulp above or below it, where r_i
        # is i's nearest distance; at 2^1023 the filter runs on halved entries.
        # The outcome and the triple are those of the exact scan alone.
        rng = np.random.default_rng(11)
        cases = []
        for x, y in rng.uniform(0.4, 0.95, size=(8, 2)) * scale:
            cases.append(np.array([[0.0, x], [x, 0.0]]))
            s = x + y
            for long in (np.nextafter(s, 0.0), s, np.nextafter(s, math.inf)):
                for i, k, j in itertools.permutations(range(3)):
                    a = np.zeros((3, 3))
                    a[i, k] = a[k, i] = x
                    a[k, j] = a[j, k] = y
                    a[i, j] = a[j, i] = long
                    cases.append(a)
        for a in cases:
            effective = 1e-12 * float(a.max()) if tol is None else tol * float(a.max())
            try:
                metric._scan_triangles(a, effective, 0)
                expected = None
            except TriangleViolation as err:
                expected = (err.i, err.j, err.k)
            if expected is None:
                validate_metric(a, tol=None if tol is None else effective)
                continue
            with pytest.raises(TriangleViolation) as err:
                validate_metric(a, tol=None if tol is None else effective)
            assert (err.value.i, err.value.j, err.value.k) == expected

    @given(planted_paths())
    @example((200, 2, 199, 100.0)).via("a far shortcut at the last column")
    @example((200, 50, 199, 150.0)).via("a long pair at the end of a sliced row")
    @settings(max_examples=40, deadline=None)
    def test_a_violation_in_a_long_kept_row(self, case):
        # a path keeps its rows' far pairs past the screen, so their sums are
        # formed from contiguous slices; one entry is moved off the metric
        n, i, j, value = case
        idx = np.arange(n)
        a = np.abs(idx[:, None] - idx[None, :]).astype(float)
        a[i, j] = a[j, i] = value
        expected = oracles.scan_triangle_violation(a, 1e-12 * float(a.max()))
        if expected is None:
            validate_metric(a)
            return
        with pytest.raises(TriangleViolation) as err:
            validate_metric(a)
        e = err.value
        assert (e.i, e.j, e.k, e.lhs, e.rhs) == expected

    @pytest.mark.parametrize("i", [0, 60, 170])
    def test_every_kept_pair_of_a_row_reaches_the_filter(self, i):
        # on a path of 200 points, lengthen d(i,j) by 2.5 for one j at a time:
        # rows 0 and 60 then add contiguous slices, row 170 (29 pairs) is
        # gathered, and only pair (i, j) violates a triangle
        idx = np.arange(200)
        path = np.abs(idx[:, None] - idx[None, :]).astype(float)
        for j in range(i + 1, 200):
            a = path.copy()
            a[i, j] = a[j, i] = j - i + 2.5
            with pytest.raises(TriangleViolation) as scan:
                metric._scan_triangles(a, 1e-12 * float(a.max()), i)
            expected = (scan.value.i, scan.value.j, scan.value.k)
            assert expected[:2] == (i, j)
            with pytest.raises(TriangleViolation) as err:
                validate_metric(a)
            assert (err.value.i, err.value.j, err.value.k) == expected

    def test_the_screen_clears_most_graph_pairs(self, monkeypatch):
        # count the pairs whose n min-plus sums are formed: each chunk of sums
        # is one np.add into an array with a row per pair
        class CountingNumpy:
            pairs = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def add(self, *args, **kwargs):
                out = np.add(*args, **kwargs)
                self.pairs += out.shape[0] if out.ndim == 2 else 0
                return out

        d = random_graph_metric(256, None, 7).dist
        counting = CountingNumpy()
        monkeypatch.setattr(metric, "np", counting)
        validate_metric(d)
        assert 0 < counting.pairs <= 0.15 * (256 * 255 // 2)

    def test_peak_memory_within_the_copy_and_one_square_buffer(self):
        # a path keeps almost every pair past the screen
        n = 600
        idx = np.arange(n)
        a = np.abs(idx[:, None] - idx[None, :]).astype(float)
        tracemalloc.start()
        try:
            validate_metric(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * a.itemsize  # the checked copy, then at most n x n more


class TestGreedyNet:
    def test_five_points_radius_15(self):
        space = line_space([0, 1, 2, 3, 4])
        net = greedy_maximal_net(space, (0, 10.0), 1.5)
        assert net.members == (0, 2, 4)

    def test_radius_beyond_diameter_gives_seed(self):
        space = line_space([0, 1, 2, 3, 4])
        net = greedy_maximal_net(space, (0, 10.0), 5.0)
        assert net.members == (0,)

    def test_single_point_ball(self):
        space = line_space([0, 8])
        net = greedy_maximal_net(space, (0, 1.0), 0.5)
        assert net.members == (0,)
        with pytest.raises(MetricError):  # a ball that misses its own center
            greedy_maximal_net(space, (0, -1.0), 0.5)

    def test_tie_at_exact_radius_is_admitted(self):
        space = line_space([0, 1.5])
        net = greedy_maximal_net(space, (0, 4.0), 1.5)
        assert net.members == (0, 1)

    def test_seed_forced_first(self):
        # the center seeds the net
        space = line_space([0, 1, 2, 3, 4])
        net = greedy_maximal_net(space, (2, 10.0), 1.5)
        assert net.members == (2, 0, 4)

    def test_brute_force_invariants(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            pts = rng.uniform(0, 6, size=(12, 2))
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
            np.fill_diagonal(d, 0.0)
            space = validate_metric(d)
            radius = float(rng.uniform(0.3, 3.0))
            ball_r = float(rng.uniform(2.0, 8.0))
            net = greedy_maximal_net(space, (0, ball_r), radius)
            flags = oracles.brute_net_check(
                d.tolist(), net.members, 0, ball_r, radius, 0
            )
            assert flags == (True, True, True)


class TestMinPositiveDistance:
    def test_values(self):
        assert min_positive_distance(line_space([0, 1, 3])) == 1.0
        assert min_positive_distance(validate_metric([[0, 4], [4, 0]])) == 4.0
        tri = validate_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert min_positive_distance(tri) == 1.0

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            min_positive_distance(validate_metric([[0.0]]))


class TestGreedyOracle:
    """The covered-mask scan against the plain greedy loop of the oracle."""

    @given(integer_metrics(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_greedy_net_any_center_and_seed(self, matrix, data):
        n = len(matrix)
        center = data.draw(st.integers(0, n - 1))
        ball_radius = data.draw(st.integers(0, 12))
        radius = data.draw(st.integers(1, 6))
        space = validate_metric(matrix)
        net = greedy_maximal_net(space, (center, float(ball_radius)), float(radius))
        members, _ = oracles.brute_greedy_net(matrix, center, ball_radius, radius, center)
        assert list(net.members) == members

    @given(integer_metrics(), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_net_round_on_matrix(self, matrix, radius, data):
        basepoint = data.draw(st.integers(0, len(matrix) - 1))
        members, beta = net_round(validate_metric(matrix), 2.0 * radius, basepoint)
        expected = oracles.brute_greedy_net(matrix, basepoint, math.inf, radius, basepoint)
        assert (list(members), list(beta)) == expected

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=10, unique=True
        ),
        st.sampled_from([1.0, math.inf]),
        st.integers(1, 5),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_net_round_on_cloud(self, points, p, radius, data):
        # integer coordinates keep l_1 and l_inf distances exact integers
        basepoint = data.draw(st.integers(0, len(points) - 1))
        cloud = LpPointSet(p, np.array(points, dtype=float), basepoint)
        members, beta = net_round(cloud.metric_space, 2.0 * radius, basepoint)
        matrix = [[oracles.brute_lp_dist(a, b, p) for b in points] for a in points]
        expected = oracles.brute_greedy_net(matrix, basepoint, math.inf, radius, basepoint)
        assert (list(members), list(beta)) == expected


class TestModuli:
    def test_identity_on_three_points(self):
        # pairs of {0,1,3}: distances 1, 2, 3; non-strict thresholds
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        prof = moduli_profile(space, [0.0, 2.0, 3.0], image_distances=euclid(images))
        assert prof.compression == (1.0, 2.0, 3.0)
        assert prof.expansion == (0.0, 2.0, 3.0)

    def test_omega_zero_at_zero(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (5.0, 1.0, 2.0)]
        prof = moduli_profile(space, [0.0], image_distances=euclid(images))
        assert prof.expansion == (0.0,)

    def test_rho_at_max_distance(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        prof = moduli_profile(space, [3.0], image_distances=euclid(images))
        assert prof.compression == (3.0,)

    def test_unbounded_marker_above_diameter(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        prof = moduli_profile(space, [4.0], image_distances=euclid(images))
        assert prof.compression == (math.inf,)
        assert prof.expansion == (3.0,)

    def test_thresholds_sorted_and_monotone(self):
        space = line_space([0, 1, 3, 7])
        rng = np.random.default_rng(11)
        images = [rng.uniform(-1, 1, size=3) for _ in range(4)]
        prof = moduli_profile(space, [5.0, 0.5, 2.0, 9.0], image_distances=euclid(images))
        assert prof.thresholds == (0.5, 2.0, 5.0, 9.0)
        finite = [c for c in prof.compression if not math.isinf(c)]
        assert all(a <= b for a, b in zip(finite, finite[1:]))
        assert all(a <= b for a, b in zip(prof.expansion, prof.expansion[1:]))

    def test_negative_threshold_rejected(self):
        space = line_space([0, 1])
        for bad in (-1.0, math.nan):  # NaN has no place in the sorted grid
            with pytest.raises(MetricError):
                moduli_profile(space, [1.0, bad], image_distances=euclid([np.zeros(1), np.ones(1)]))

    def test_length_mismatch(self):
        space = line_space([0, 1, 3])
        with pytest.raises(LengthMismatch):
            moduli_profile(space, [1.0], image_distances=euclid([np.zeros(1)]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 5, size=(16, 3))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, 0.0)
        space = validate_metric(d)
        images = [rng.uniform(-2, 2, size=4) for _ in range(16)]
        ts = [0.0, 0.5, 1.0, 2.0, 4.0, 10.0]
        prof = moduli_profile(space, ts, image_distances=euclid(images))
        imat = [
            [oracles.brute_lp_dist(images[i], images[j], 2.0) for j in range(16)]
            for i in range(16)
        ]
        comp, expa = oracles.brute_moduli(d.tolist(), imat, ts)
        for a, b in zip(prof.compression, comp):
            assert a == b or abs(a - b) < 1e-12
        for a, b in zip(prof.expansion, expa):
            assert abs(a - b) < 1e-12


@st.composite
def integer_maps(draw):
    """(domain, image distances): an integer-weighted path or graph metric on
    2..9 points and a symmetric integer matrix, zeros (shared images) allowed."""
    if draw(st.booleans()):
        gaps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
        space = line_space(np.cumsum([0, *gaps]))
    else:
        space = validate_metric(draw(integer_metrics().filter(lambda d: len(d) >= 2)))
    n = space.n_points
    values = draw(st.lists(st.integers(0, 8), min_size=n * n, max_size=n * n))
    imat = np.triu(np.array(values, dtype=float).reshape(n, n), 1)
    return space, imat + imat.T


class TestModuliExactly:
    @given(integer_maps(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_brute_force_profile(self, space_and_images, data):
        space, imat = space_and_images
        dists = sorted(set(space.dist[np.triu_indices(space.n_points, 1)].tolist()))
        # thresholds on existing distances (ties on both sides), below the least
        # distance, above the diameter, and anywhere between
        ts = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(dists),
                    st.sampled_from([0.0, 0.5, dists[-1] + 1.0, math.inf]),
                    st.floats(0.0, dists[-1] + 2.0),
                ),
                max_size=12,
            )
        )
        prof = moduli_profile(space, ts, image_distances=imat)
        comp, expa = oracles.brute_moduli(space.dist.tolist(), imat.tolist(), sorted(ts))
        assert prof.thresholds == tuple(sorted(ts))
        assert prof.compression == tuple(comp)
        assert prof.expansion == tuple(expa)

    def test_peak_memory_stays_small(self):
        import tracemalloc

        from blockembed.fixtures import random_lp_cloud

        space = random_lp_cloud(512, 3, 2.0, seed=1).metric_space
        m = 1.5 * space.dist
        ts = np.geomspace(0.01, 2.0 * space.diameter(), 32).tolist()
        tracemalloc.start()
        try:
            prof = moduli_profile(space, ts, image_distances=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.expansion[-1] == m.max()
        assert peak < 4 * 2**20

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_float_spaces_over_many_row_blocks(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 12))
        p = data.draw(st.sampled_from([1.0, 2.0, math.inf]))
        space = LpPointSet(p, rng.uniform(-1, 1, (n, 2)) * 10.0 ** rng.integers(-3, 4)).metric_space
        imat = np.abs(rng.normal(size=(n, n)))
        imat = np.triu(imat, 1) + np.triu(imat, 1).T
        dists = space.dist[np.triu_indices(n, 1)].tolist()
        near = [math.nextafter(d, x) for d in dists for x in (0.0, math.inf)]
        ts = data.draw(
            st.lists(
                st.sampled_from(dists + near + [0.0, math.inf]) | st.floats(0.0, 100.0),
                max_size=12,
            )
        )
        prof = self._profile_in_small_blocks(space, ts, imat, data.draw(st.integers(1, 8)))
        comp, expa = oracles.brute_moduli(space.dist.tolist(), imat.tolist(), sorted(ts))
        assert (prof.compression, prof.expansion) == (tuple(comp), tuple(expa))

    @staticmethod
    def _profile_in_small_blocks(space, ts, imat, block):
        """moduli_profile over row blocks of ``block`` pairs, with the bucket
        table a full-sized row block allows (a tiny block allows none)."""
        table = metric._bucket_table(np.unique([*map(float, ts), math.inf]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_BLOCK_PAIRS", block)
            mp.setattr(metric, "_bucket_table", lambda grid: table)
            return moduli_profile(space, ts, image_distances=imat)


# every octave of the positive doubles, the subnormals, and the top octave
POSITIVE = st.floats(5e-324, 1.7976931348623157e308)
SUBNORMAL = st.floats(5e-324, 2.0**-1022, exclude_max=True)
TOP = st.floats(2.0**1022, 1.7976931348623157e308)


@st.composite
def bucket_cases(draw):
    """(grid, distances): sorted distinct thresholds ending in inf, sometimes
    with 0.0 and a run of neighbouring doubles, and positive finite
    distances on, beside and between them."""
    some = POSITIVE | SUBNORMAL | TOP
    ts = draw(st.lists(some | st.sampled_from([0.0, math.inf]), max_size=30))
    if draw(st.booleans()):  # a run denser than any cell: consecutive doubles
        t = draw(some)
        for _ in range(draw(st.integers(1, 12))):
            ts.append(t := math.nextafter(t, math.inf))
    grid = np.unique([*ts, math.inf])
    inner = grid[(grid > 0) & (grid < math.inf)].tolist()
    near = [math.nextafter(t, x) for t in inner for x in (0.0, math.inf)]
    on = st.sampled_from(inner + near) if inner else some
    d = draw(st.lists(some | on, min_size=1, max_size=40))
    d = [x for x in d if 0 < x < math.inf] or [1.0]
    return grid, np.array(d)


class TestModuliBuckets:
    """The bucket table against the binary search it replaced."""

    @given(bucket_cases(), st.sampled_from([3, 5, 64, _BLOCK_PAIRS]))
    @settings(max_examples=300, deadline=None)
    def test_table_equals_the_binary_search(self, case, cells):
        grid, d = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_BLOCK_PAIRS", cells)  # a dense grid needs more cells
            table = metric._bucket_table(grid)
        full = metric._bucket_table(grid)
        if table is None:  # the binary search buckets every distance
            assert full is None or len(full[2]) > cells
        else:
            assert len(table[2]) <= cells
            assert all(np.array_equal(a, b) for a, b in zip(table, full))
        expected = oracles.searchsorted_buckets(grid, d)
        got = metric._buckets(grid, table, d)
        assert [a.tolist() for a in got] == [a.tolist() for a in expected]
        for i in range(len(d)):  # one distance a block: a cell of one threshold uses the table
            got = metric._buckets(grid, table, d[i : i + 1])
            assert [a.tolist() for a in got] == [a[i : i + 1].tolist() for a in expected]

    def test_geometric_grid_takes_the_table_alone(self):
        # the CLI's grid: 32 geometric thresholds, here over 1e-3 .. 1e3
        grid = np.unique([*np.geomspace(1e-3, 1e3, 32).tolist(), math.inf])
        shift, first, counts, values = metric._bucket_table(grid)
        assert np.isfinite(values).sum() == len(grid) - 1  # a cell for each threshold
        assert len(counts) < 4 * len(grid)

    @pytest.mark.parametrize("size", [300, 70_000])
    def test_counts_hold_a_long_grid(self, size):
        grid = np.arange(1.0, size + 2.0)
        grid[-1] = math.inf
        table = metric._bucket_table(grid)
        if size < _BLOCK_PAIRS:
            assert table is not None and table[2].dtype == np.uint16
        else:  # more thresholds than a table has cells: the binary search
            assert table is None
        d = np.array([256.5, 299.0, 299.5, 300.5, 1e6, 1e300])
        d = np.concatenate([d, np.nextafter(d, 0.0), np.nextafter(d, math.inf)])
        got = metric._buckets(grid, table, d)
        assert [a.tolist() for a in got] == [
            a.tolist() for a in oracles.searchsorted_buckets(grid, d)
        ]
        assert max(got[0]) == size


def distortion(space, image_distances):
    """The empirical distortion of the map with these image distances."""
    report = verify_bounds(space, np.zeros_like, np.zeros_like, image_distances=image_distances)
    return report.empirical_distortion


class TestDistortion:
    def test_identity(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        assert distortion(space, image_distances=euclid(images)) == 1.0

    def test_scaling_invariance(self):
        space = line_space([0, 1, 3])
        images = [np.array([2 * c]) for c in (0.0, 1.0, 3.0)]
        assert distortion(space, image_distances=euclid(images)) == 1.0

    def test_stretch_by_two(self):
        space = line_space([0, 1, 2])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        assert distortion(space, image_distances=euclid(images)) == 2.0

    def test_collapsed_pair_is_infinite(self):
        space = line_space([0, 1, 3])
        images = [np.array([0.0]), np.array([0.0]), np.array([1.0])]
        assert distortion(space, image_distances=euclid(images)) == math.inf


class TestImageDistanceChecks:
    """Both certificates reject a non-finite image distance the same way."""

    CHECKS = {
        "verify_bounds": lambda space, m: verify_bounds(space, abs, abs, image_distances=m),
        "moduli_profile": lambda space, m: moduli_profile(space, [1.0], image_distances=m),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 1)])
    def test_non_finite_entry_rejected(self, check, bad, at):
        space = line_space([0, 1, 3])
        m = np.abs(np.subtract.outer([0.0, 1, 3], [0.0, 1, 3]))
        m[at] = bad
        with pytest.raises(ValueError, match="^image distances must be finite$"):
            self.CHECKS[check](space, m)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_finiteness_read_without_a_mask(self, check):
        # one minimum and one maximum: no n x n bool array of np.isfinite
        n = 600
        a = np.arange(n, dtype=float)
        space = line_space(a)
        m = np.abs(np.subtract.outer(a, a))
        m[n - 1, n - 2] = math.inf
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="finite"):
                self.CHECKS[check](space, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 4


class TestVerifyBounds:
    def test_two_point_envelope(self):
        from blockembed.proper import WEIGHT_SERIES_SUM, separation_envelope

        space = validate_metric([[0, 4], [4, 0]])
        images = [np.array([0.0]), np.array([4.0])]
        rep = verify_bounds(
            space,
            separation_envelope,
            lambda d: 9 * WEIGHT_SERIES_SUM * d,
            image_distances=euclid(images),
        )
        assert rep.passed
        # the one pair's image distance is 4
        assert rep.worst_lower_slack == pytest.approx(4 - 4 / 624, abs=1e-12)
        assert rep.worst_upper_slack == pytest.approx(113.5205314 - 4, abs=1e-6)

    def test_zero_map_fails_every_pair(self):
        space = line_space([0, 1, 3])
        images = [np.zeros(2)] * 3
        rep = verify_bounds(space, lambda d: 0.1 * d, lambda d: d, image_distances=euclid(images))
        assert not rep.passed
        assert rep.n_failed == rep.n_pairs == 3
        assert rep.empirical_distortion == math.inf

    def test_zero_map_fails_at_any_scale(self):
        # at 1e-9 every lower envelope value lies inside the default tolerance,
        # so only the identical images can fail the map
        from blockembed.fixtures import random_graph_metric
        from blockembed.proper import separation_envelope

        space = validate_metric(1e-9 * random_graph_metric(40, None, 7).dist)
        zero = np.zeros((40, 40))
        rep = verify_bounds(space, separation_envelope, lambda d: d, image_distances=zero)
        assert rep.worst_lower_slack > -rep.tolerance
        assert not rep.passed
        assert rep.n_failed == rep.n_pairs == 40 * 39 // 2

    def test_zero_image_passes_under_a_negative_lower_envelope(self):
        # coarse pairs rounded onto one net member share an image
        space = line_space([0, 1, 3])
        m = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
        rep = verify_bounds(space, lambda d: d - 1.5, lambda d: d + 1.5, image_distances=m)
        assert rep.passed

    def test_identity_zero_upper_slack(self):
        space = line_space([0, 1, 3])
        images = [np.array([c]) for c in (0.0, 1.0, 3.0)]
        rep = verify_bounds(space, lambda d: 0.0, lambda d: d, image_distances=euclid(images))
        assert rep.passed
        assert rep.worst_upper_slack == 0.0
        assert rep.empirical_distortion == 1.0

    def test_tolerance_absorbs_small_violation(self):
        space = validate_metric([[0, 1], [1, 0]])
        images = [np.array([0.0]), np.array([1.0])]
        tight = verify_bounds(
            space, lambda d: d + 5e-10, lambda d: d, image_distances=euclid(images), tolerance=1e-9
        )
        assert tight.passed
        strict = verify_bounds(
            space, lambda d: d + 5e-10, lambda d: d, image_distances=euclid(images), tolerance=0.0
        )
        assert not strict.passed

    def test_worst_slacks_match_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 3, size=(12, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, 0.0)
        space = validate_metric(d)
        images = [rng.uniform(-1, 1, size=3) for _ in range(12)]
        lower = lambda t: 0.05 * t
        upper = lambda t: 5.0 * t
        rep = verify_bounds(space, lower, upper, image_distances=euclid(images))
        imat = [
            [oracles.brute_lp_dist(images[i], images[j], 2.0) for j in range(12)]
            for i in range(12)
        ]
        lo, hi = oracles.brute_worst_slacks(d.tolist(), imat, lower, upper)
        assert rep.worst_lower_slack == pytest.approx(lo, abs=1e-12)
        assert rep.worst_upper_slack == pytest.approx(hi, abs=1e-12)


class TestReportIsPlainValues:
    """A report holds counts, extrema and constants, nothing of size n."""

    @staticmethod
    def report(verifier, n):
        from blockembed.fixtures import random_graph_metric, random_lp_cloud
        from blockembed.lp_coarse import coarse_embed, embed_set_lp, verify_coarse, verify_lp
        from blockembed.metric import PointedSpace
        from blockembed.proper import embed_space_proper, verify_proper

        if verifier == "proper":
            return verify_proper(embed_space_proper(PointedSpace(random_graph_metric(n, None, 3))))
        cloud = random_lp_cloud(n, 3, 2.0, seed=3)
        if verifier == "lp":
            return verify_lp(embed_set_lp(cloud))
        return verify_coarse(coarse_embed(cloud, 1.0))

    @pytest.mark.parametrize("verifier", ["proper", "lp", "coarse"])
    def test_pickles_to_a_size_independent_of_n(self, verifier):
        import pickle

        small, large = self.report(verifier, 16), self.report(verifier, 256)
        for rep in (small, large):
            assert pickle.loads(pickle.dumps(rep)).summary() == rep.summary()
        assert len(pickle.dumps(large)) <= 2 * len(pickle.dumps(small))


def _separation_pair():
    from blockembed.proper import WEIGHT_SERIES_SUM, separation_envelope

    return separation_envelope, lambda d: 9.0 * WEIGHT_SERIES_SUM * d


# (lower, upper) envelope pairs: the l_p embedding's linear pair, the coarse
# embedding's affine pair, the proper embedding's pair, and envelopes that
# fail pairs (the lower above the upper, NaN for the larger distances)
ENVELOPES = {
    "lp-linear": (lambda d: d / 20.402, lambda d: 9.0 * d),
    "coarse-affine": (lambda d: d / 20.402 - 9.0, lambda d: 20.402 * d + 9.0),
    "separation": _separation_pair(),
    "failing": (lambda d: 2.0 * d, lambda d: 0.5 * d),
    "nan": (lambda d: np.where(d > 2.0, math.nan, 0.0), lambda d: 9.0 * d),
}


class TestVerifyBoundsAgainstLoop:
    """The block-wise verifier against the former per-pair loop."""

    @pytest.mark.parametrize("envelope", sorted(ENVELOPES))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17])
    @pytest.mark.parametrize("images", ["scaled", "random", "zero", "some-zero"])
    @pytest.mark.parametrize("tolerance", [1e-9, 0.0])
    def test_same_report_as_the_loop(self, envelope, n, images, tolerance):
        rng = np.random.default_rng(n)
        pts = rng.uniform(0, 6, size=(n, 2))
        space = validate_metric(lp_distance_matrix(pts, 2.0))
        if images == "scaled":
            m = 1.5 * space.dist
        elif images == "random":
            m = lp_distance_matrix(rng.uniform(-3, 3, size=(n, 4)), 2.0)
        elif images == "zero":
            m = np.zeros((n, n))
        else:
            m = lp_distance_matrix(np.round(pts / 3.0), 2.0)  # shared images
        lower, upper = ENVELOPES[envelope]
        rep = verify_bounds(space, lower, upper, image_distances=m, tolerance=tolerance)
        summary, passed = oracles.loop_verify_bounds(space, lower, upper, m, tolerance)
        assert rep.summary() == summary
        assert rep.passed == passed

    def test_nan_tolerance_raises(self):
        space = line_space([0, 1, 3])
        with pytest.raises(ValueError):
            verify_bounds(
                space, lambda d: 0.0, lambda d: d, image_distances=space.dist, tolerance=math.nan
            )

    def test_peak_memory_does_not_grow_with_records(self):
        import tracemalloc

        from blockembed.fixtures import random_lp_cloud

        space = random_lp_cloud(512, 3, 2.0, seed=1).metric_space
        m = 1.5 * space.dist
        lower, upper = ENVELOPES["lp-linear"]
        tracemalloc.start()
        try:
            rep = verify_bounds(space, lower, upper, image_distances=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_pairs == 512 * 511 // 2 and rep.passed
        assert peak < 4 * 2**20

    def test_envelopes_called_once_per_block_not_per_pair(self):
        from blockembed.fixtures import random_lp_cloud

        space = random_lp_cloud(512, 3, 2.0, seed=1).metric_space
        calls = {"lower": 0, "upper": 0}

        def counting(side, envelope):
            def counted(d):
                calls[side] += 1
                return envelope(d)

            return counted

        lower, upper = ENVELOPES["lp-linear"]
        rep = verify_bounds(
            space,
            counting("lower", lower),
            counting("upper", upper),
            image_distances=1.5 * space.dist,
        )
        assert rep.n_pairs == 512 * 511 // 2 and rep.passed
        assert 1 <= calls["lower"] == calls["upper"] <= math.ceil(rep.n_pairs / _BLOCK_PAIRS) + 1
