import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dln_landscape.linalg import (
    FullColumnRankError,
    RankDeficientLiftError,
    Tolerances,
    best_rank_approx,
    ensure_matrix,
    kernel_vector,
    _rank_of_spectrum,
    min_norm_right_solve,
    numerical_rank,
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _count_svd(monkeypatch) -> list:
    """Patch ``np.linalg.svd`` to log the keyword arguments of every call."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _refuse_svd(monkeypatch) -> None:
    """Patch ``np.linalg.svd`` to fail the test if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran where none was expected")

    monkeypatch.setattr(np.linalg, "svd", refuse)


def _svd_rank(m, rank_tol: float) -> int:
    return _rank_of_spectrum(np.linalg.svd(m, compute_uv=False), rank_tol)


_SHAPES = {
    "row": lambda p, n: (1, n),
    "column": lambda p, n: (n, 1),
    "tall": lambda p, n: (n, p),
    "wide": lambda p, n: (p, n),
    "square": lambda p, n: (p, p),
}


@st.composite
def _rank_cases(draw, layouts=tuple(_SHAPES), min_width=1, max_exponent=300):
    """A matrix scaled by ``10**[-max_exponent, max_exponent]`` and a
    ``rank_tol`` in ``[1e-16, 0.5]``.

    ``sigma_min / sigma_max`` is planted within ``10**±3`` of a cutoff: the
    SVD's, ``rank_tol``, or the certificate's, about ``1e3 * rank_tol`` and
    never below ``3e-7``.  A ``duplicate`` case then copies one row or
    column onto another, so the rank drops by one exactly; a ``zero`` case
    is the zero matrix.
    """
    layout = draw(st.sampled_from(layouts))
    kind = draw(st.sampled_from(("svd cutoff", "certificate cutoff", "duplicate", "zero")))
    scale = 10.0 ** draw(st.integers(-max_exponent, max_exponent))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    p = int(rng.integers(min_width, 17))
    shape = _SHAPES[layout](p, int(rng.integers(p, 2 * p + 5)))
    rank_tol = 10.0 ** rng.uniform(-16.0, np.log10(0.5))
    if kind == "zero":
        return np.zeros(shape), rank_tol
    cutoff = rank_tol if kind == "svd cutoff" else max(1e3 * rank_tol, 3e-7)
    log_ratio = min(np.log10(cutoff) + rng.uniform(-3.0, 3.0), 0.0)
    width = min(shape)
    s = np.sort(10.0 ** rng.uniform(log_ratio, 0.0, width))[::-1]
    s[0], s[-1] = 1.0, 10.0**log_ratio if width > 1 else 1.0
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], width)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], width)))
    m = (u * s) @ v.T * scale
    if kind == "duplicate" and width > 1:
        if shape[0] >= shape[1]:
            m[:, -1] = m[:, 0]
        else:
            m[-1] = m[0]
    return m, rank_tol


def _assert_svd_count(m, rank_tol: float) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert numerical_rank(m, rank_tol) == _svd_rank(m, rank_tol)


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.rank_tol == 1e-9
        assert t.grad_tol == 1e-8
        assert t.invariance_tol == 1e-9
        assert t.subspace_tol == 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank_tol": 0.0},
            {"rank_tol": -1e-9},
            {"rank_tol": 2.0},
            {"grad_tol": float("nan")},
            {"invariance_tol": float("inf")},
            {"subspace_tol": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)


class TestEnsureMatrix:
    def test_copies_and_casts(self):
        m = ensure_matrix([[1, 2], [3, 4]], "m")
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.ones(3), "m")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ensure_matrix([[np.nan, 0.0]], "m")


class TestNumericalRank:
    def test_hand_values(self):
        assert numerical_rank(np.zeros((3, 2))) == 0
        assert numerical_rank(np.eye(3)) == 3
        assert numerical_rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1
        # relative threshold: 1e-12 is below 1e-9 * 3
        assert numerical_rank(np.array([[3.0, 0.0], [0.0, 1e-12]])) == 1
        # but 1e-8 is above it
        assert numerical_rank(np.array([[3.0, 0.0], [0.0, 1e-8]])) == 2

    def test_threshold_is_relative(self):
        m = np.diag([1.0, 1e-2])
        assert numerical_rank(m, rank_tol=1e-3) == 2
        assert numerical_rank(m, rank_tol=1e-1) == 1
        assert numerical_rank(1e6 * m, rank_tol=1e-3) == numerical_rank(
            1e-6 * m, rank_tol=1e-3
        )
        assert numerical_rank(m, rank_tol=1e-5) == 2
        m = np.diag([1e6, 1e-1])
        assert numerical_rank(m, rank_tol=1e-3) == 1

    @settings(max_examples=400)
    @given(_rank_cases())
    def test_count_is_the_svd_count(self, case):
        _assert_svd_count(*case)

    # At least 8 wide and at moderate scale, every case runs the certificate.
    @settings(max_examples=400)
    @given(_rank_cases(layouts=("tall", "wide", "square"), min_width=8, max_exponent=30))
    def test_certified_count_is_the_svd_count(self, case):
        _assert_svd_count(*case)

    @pytest.mark.parametrize("rank_tol", (0.0, -1e-9, 1e-3, 0.5, 2.0, 1e300, np.inf, np.nan))
    def test_out_of_range_tolerances_keep_the_svd_count(self, rank_tol):
        _assert_svd_count(_rng(3).standard_normal((12, 9)), rank_tol)

    @given(st.integers(0, 2**32 - 1))
    def test_orthogonal_invariance(self, seed):
        rng = _rng(seed)
        m = rng.standard_normal((4, 3))
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        q = q * np.sign(np.diag(r))
        assert numerical_rank(q @ m) == numerical_rank(m)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2))
    def test_matches_construction_rank(self, seed, rank):
        rng = _rng(seed)
        a = rng.standard_normal((4, rank)) if rank else np.zeros((4, 0))
        b = rng.standard_normal((rank, 3)) if rank else np.zeros((0, 3))
        m = a @ b if rank else np.zeros((4, 3))
        assert numerical_rank(m) == rank


class TestKernelVector:
    def test_zero_matrix_gives_first_basis_vector(self):
        v = kernel_vector(np.zeros((3, 2)))
        assert np.array_equal(v, np.array([1.0, 0.0]))

    def test_hand_kernel_of_rank_one_row(self):
        v = kernel_vector(np.array([[1.0, 1.0]]))
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(v, expected, atol=1e-15)
        # sign convention: first nonzero component positive
        assert v[0] > 0

    def test_full_column_rank_raises(self):
        with pytest.raises(FullColumnRankError):
            kernel_vector(np.eye(3))
        with pytest.raises(FullColumnRankError):
            kernel_vector(np.array([[1.0], [2.0]]))  # 2x1, rank 1 == cols

    @given(st.integers(0, 2**32 - 1))
    def test_kernel_is_annihilated_and_unit(self, seed):
        rng = _rng(seed)
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((2, 5))
        m = a @ b  # rank <= 2 < 5 columns
        v = kernel_vector(m)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(m @ v) <= 1e-10 * np.linalg.norm(m)

    def test_deterministic_sign(self):
        m = np.array([[2.0, 2.0, 0.0]])
        v1 = kernel_vector(m)
        v2 = kernel_vector(m.copy())
        assert np.array_equal(v1, v2)
        nz = np.nonzero(v1)[0]
        assert v1[nz[0]] > 0


class TestMinNormRightSolve:
    def test_pseudoinverse_hand_value(self):
        # z @ a = target with a = [[1], [0]]: minimum-norm completion puts
        # zeros in the free column.
        a = np.array([[1.0], [0.0]])
        target = np.array([[0.1], [0.2]])
        z, amp = min_norm_right_solve(a, target)
        assert np.allclose(z, np.array([[0.1, 0.0], [0.2, 0.0]]), atol=1e-15)
        assert abs(amp - 1.0) < 1e-12

    def test_exactness_on_generic_solve(self):
        rng = _rng(0)
        a = rng.standard_normal((4, 3))  # full row-space rank 3
        target = rng.standard_normal((2, 3))
        z, amp = min_norm_right_solve(a, target)
        assert np.linalg.norm(z @ a - target) <= 1e-12 * np.linalg.norm(target)
        assert amp == np.linalg.norm(z) / np.linalg.norm(target)

    def test_rank_deficient_raises(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1, target needs col 2
        with pytest.raises(RankDeficientLiftError):
            min_norm_right_solve(a, np.array([[0.0, 1.0]]))

    def test_zero_target_amplification(self):
        a = np.eye(2)
        z, amp = min_norm_right_solve(a, np.zeros((3, 2)))
        assert np.array_equal(z, np.zeros((3, 2)))
        assert amp == 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_minimality_among_solutions(self, seed):
        rng = _rng(seed)
        a = rng.standard_normal((4, 2))  # wide row space: kernel of a.T nontrivial
        target = rng.standard_normal((3, 2))
        z, _ = min_norm_right_solve(a, target)
        base = np.linalg.norm(z)
        # perturb inside the solution set: add rows from the left null space
        # of a (vectors n with n @ a = 0)
        u, s, vh = np.linalg.svd(a.T, full_matrices=True)
        null = vh[2:]  # (2, 4): rows annihilated by a.T ... z rows live in R^4
        for _ in range(25):
            coeffs = rng.standard_normal((3, null.shape[0]))
            other = z + coeffs @ null
            assert np.linalg.norm(other @ a - target) <= 1e-8 * (
                1.0 + np.linalg.norm(target)
            )
            assert base <= np.linalg.norm(other) + 1e-10


class TestBestRankApprox:
    def test_rank_zero_is_zero(self):
        m = _rng(1).standard_normal((3, 4))
        assert np.array_equal(best_rank_approx(m, 0), np.zeros((3, 4)))

    def test_full_rank_is_exact_copy(self):
        m = _rng(2).standard_normal((3, 4))
        out = best_rank_approx(m, 3)
        assert np.array_equal(out, m)
        out = best_rank_approx(m, 7)
        assert np.array_equal(out, m)

    def test_hand_diagonal_truncation(self):
        m = np.diag([3.0, 2.0, 1.0])
        out = best_rank_approx(m, 2)
        assert np.allclose(out, np.diag([3.0, 2.0, 0.0]), atol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2))
    def test_eckart_young_beats_random_competitors(self, seed, rank):
        rng = _rng(seed)
        m = rng.standard_normal((4, 3))
        approx = best_rank_approx(m, rank)
        assert numerical_rank(approx) <= rank
        best = np.linalg.norm(m - approx)
        for _ in range(20):
            c = rng.standard_normal((4, rank)) @ rng.standard_normal((rank, 3))
            assert best <= np.linalg.norm(m - c) + 1e-10

    @given(st.integers(0, 2**32 - 1))
    def test_residual_matches_tail_singular_values(self, seed):
        rng = _rng(seed)
        m = rng.standard_normal((4, 4))
        s = np.linalg.svd(m, compute_uv=False)
        for rank in range(5):
            resid = np.linalg.norm(m - best_rank_approx(m, rank))
            expected = np.sqrt(np.sum(s[rank:] ** 2))
            assert abs(resid - expected) <= 1e-10 * (1.0 + expected)


class TestNumericalRankCost:
    @pytest.mark.parametrize("shape", [(128, 64), (64, 128)])
    def test_full_rank_takes_no_svd(self, monkeypatch, shape):
        calls = _count_svd(monkeypatch)
        assert numerical_rank(_rng(5).standard_normal(shape)) == 64
        assert len(calls) == 0

    @pytest.mark.parametrize("shape", [(128, 64), (64, 128)])
    def test_rank_deficient_takes_one_svd(self, monkeypatch, shape):
        calls = _count_svd(monkeypatch)
        m = _rng(5).standard_normal(shape)
        m[:, -1] = m[:, 0]
        m[-1] = m[0]
        assert numerical_rank(m) == 63
        assert len(calls) == 1


class TestKernelVectorCost:
    @pytest.mark.parametrize("shape", [(2, 4), (4, 3), (3, 3)])
    def test_one_svd_per_call(self, monkeypatch, shape):
        calls = _count_svd(monkeypatch)
        m = _rng(5).standard_normal(shape)
        m[:, -1] = m[:, 0]  # guarantee a kernel direction
        w = kernel_vector(m)
        assert len(calls) == 1
        assert np.linalg.norm(m @ w) <= 1e-9 * np.linalg.norm(m)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (0, 3)])
    @pytest.mark.parametrize("negative_zeros", [False, True])
    def test_an_exact_zero_matrix_skips_the_svd(self, monkeypatch, shape, negative_zeros):
        _refuse_svd(monkeypatch)
        m = np.zeros(shape)
        if negative_zeros:
            m.flat[::2] = -0.0
            assert m.size == 0 or np.signbit(m).any()
        w = kernel_vector(m)
        want = np.zeros(shape[1])
        want[0] = 1.0
        assert w.tobytes() == want.tobytes()

    def test_an_empty_matrix_without_columns_has_no_kernel(self, monkeypatch):
        _refuse_svd(monkeypatch)
        with pytest.raises(FullColumnRankError):
            kernel_vector(np.zeros((3, 0)))

    @pytest.mark.parametrize("shape", [(2, 4), (4, 3), (3, 3)])
    def test_a_nonzero_rank_deficient_matrix_gets_the_svds_vector(self, monkeypatch, shape):
        m = _rng(7).standard_normal(shape)
        m[:, -1] = m[:, 0]
        want = np.linalg.svd(m, full_matrices=True)[2][-1]
        want = -want if want[np.nonzero(want)[0][0]] < 0.0 else want
        calls = _count_svd(monkeypatch)
        assert kernel_vector(m).tobytes() == want.tobytes()
        assert len(calls) == 1
