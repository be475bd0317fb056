"""Tests for the tridiagonal discretization, Sturm counts and the count-safeguarded
Laguerre eigensolver."""

import math
import re

import numpy as np
import pytest

from spiralbox import cli, fdsolver, specfun
from spiralbox.fdsolver import (
    TridiagonalOperator,
    discretize,
    eigenvalues_lowest,
    richardson_refine,
    sturm_count,
)


def zero_potential(s: float) -> float:
    return 0.0


def inverse_square(omega: float):
    coeff = omega * omega - 0.25
    return lambda s: coeff / (s * s)


# --- discretization ------------------------------------------------------------


def test_three_node_matrix_eigenvalues_by_hand():
    op = discretize(zero_potential, math.pi, 3)
    h = math.pi / 4.0
    expected = [(2.0 - math.sqrt(2.0)) / h**2, 2.0 / h**2, (2.0 + math.sqrt(2.0)) / h**2]
    got = eigenvalues_lowest(op, 3)
    assert got == pytest.approx(expected, rel=1e-13)


def test_structure_of_discretized_operator():
    op = discretize(lambda s: 10.0 * s, 1.0, 9)
    h = 1.0 / 10.0
    assert op.grid_step == pytest.approx(h)
    assert np.allclose(op.off_diagonal, -1.0 / h**2)
    assert op.diagonal[3] == pytest.approx(2.0 / h**2 + 10.0 * 4.0 * h)


def test_constant_shift_moves_all_eigenvalues():
    base = eigenvalues_lowest(discretize(zero_potential, 1.0, 60), 4)
    shifted = eigenvalues_lowest(discretize(lambda s: 7.5, 1.0, 60), 4)
    assert shifted == pytest.approx(base + 7.5, rel=1e-12)


def test_inverse_square_diagonal_shape():
    # constant 2/h^2 plus a positive-coefficient 1/s^2 barrier: the diagonal
    # decays strictly and monotonically away from the origin
    op = discretize(inverse_square(7.88987), 1.0, 200)
    d = op.diagonal
    assert np.all(np.diff(d) < 0.0)
    assert d[0] > 2.0 / op.grid_step**2 + 1.0
    # below order 1/2 the coefficient flips sign and so does the shape
    d_attr = discretize(inverse_square(0.3), 1.0, 200).diagonal
    assert np.all(np.diff(d_attr) > 0.0)


def test_discretize_rejects_singular_potential_values():
    with pytest.raises(ValueError):
        discretize(lambda s: math.inf, 1.0, 10)
    with pytest.raises(ValueError):
        discretize(zero_potential, -1.0, 10)


@pytest.mark.parametrize(
    "W",
    [inverse_square(0.3), inverse_square(7.88987), lambda s: 7.5],
    ids=["attractive", "barrier", "constant"],
)
def test_array_potential_gives_the_diagonal_of_a_per_node_loop(W):
    n, length = 1000, 1.7
    h = length / (n + 1)
    loop = [2.0 * (1.0 / (h * h)) + W(i * h) for i in range(1, n + 1)]
    assert discretize(W, length, n).diagonal.tolist() == loop


def test_non_finite_potential_names_the_first_failing_node():
    h = 1.0 / 11
    W = lambda s: np.where(s > 0.5, np.inf, np.where(s > 0.3, np.nan, 1.0))  # noqa: E731
    with pytest.raises(ValueError, match=re.escape(f"at node s = {4 * h!r}") + "$"):
        discretize(W, 1.0, 10)
    # 1e300/s overflows, without a warning, on the nodes below s = 1e-8
    h = 1.1e-9 / 11
    with pytest.raises(ValueError, match=re.escape(f"at node s = {h!r}") + "$"):
        discretize(lambda s: 1e300 / s, 1.1e-9, 10)


def test_grid_step_whose_inverse_fourth_power_overflows_is_refused():
    # 1/h^4, the squared off-diagonal, overflows below h ~ 1.16e-77 although
    # h^2 does not: it used to warn in the sweep and end in nan
    h = 1.07e-77 / 11
    with pytest.raises(ValueError, match=f"grid step {h!r}"):
        discretize(zero_potential, 1.07e-77, 10)
    op = discretize(zero_potential, 1.3e-77 * 11, 10)  # just above the limit
    assert np.isfinite(eigenvalues_lowest(op, 2)).all()
    with pytest.raises(ValueError, match="grid step 0.5"):
        TridiagonalOperator(np.zeros(3), np.array([1.0, -2e154]), 0.5)


def test_grid_step_whose_inverse_fourth_power_underflows_is_refused():
    # 1/h^4 below the normal floats lost its digits, or read 0, in every sweep: the
    # counts were those of the diagonal alone, and `oracle --length 1e100` exited 0
    # with levels 3836 times too large
    h = 8.3e76
    with pytest.raises(ValueError, match=re.escape(f"grid step {h!r}")):
        discretize(zero_potential, h * 11, 10)
    with pytest.raises(ValueError, match="grid step 0.5"):
        TridiagonalOperator(np.zeros(3), np.array([1.0, 1e-160]), 0.5)
    h = 8.1e76  # just below the limit
    level = eigenvalues_lowest(discretize(zero_potential, h * 11, 10), 1)[0]
    assert level == pytest.approx(4.0 / h**2 * math.sin(math.pi / 22) ** 2, rel=1e-12)
    # an uncoupled row (a zero off-diagonal entry) has no square to lose
    assert TridiagonalOperator(np.zeros(3), np.array([1.0, 0.0]), 0.5).size == 3


def test_levels_near_the_top_of_the_float_range_stay_finite():
    # the middle of a bracket near 1.7e308 was 0.5 (lo + hi), and lo + hi overflowed:
    # a start there, or the coarse levels of a Richardson solve, gave inf
    well = lambda s: 1.7e308 + 0.0 * s  # noqa: E731
    op = discretize(well, 1.0, 20)
    # every level is 1.7e308 + 4/h^2 sin^2(...), to within the floor 2 eps ||T||
    for levels in (eigenvalues_lowest(op, 2, start=[1.7e308, 1.7e308]),
                   richardson_refine(well, 1.0, 2, 32)):
        assert levels.tolist() == pytest.approx([1.7e308, 1.7e308], rel=1e-15)


def test_richardson_weights_are_scaled_into_the_float_range():
    # c2 * fine, with c2 = h^2 ~ 2e117 and fine ~ 1e200, overflowed to inf
    refined = richardson_refine(lambda s: 1e200 + 0.0 * s, 1e60, 2, 32)
    assert refined.tolist() == pytest.approx([1e200, 1e200], rel=1e-15)
    # where the products are floats, the scaled weights give the same bits
    length, n = 3.7, 48
    pilot = eigenvalues_lowest(discretize(inverse_square(2.5), length, n // 16), 3)
    coarse = eigenvalues_lowest(discretize(inverse_square(2.5), length, n), 3, start=pilot)
    fine = eigenvalues_lowest(discretize(inverse_square(2.5), length, 2 * n), 3, start=coarse)
    c2, f2 = (length / (n + 1)) ** 2, (length / (2 * n + 1)) ** 2
    want = (c2 * fine - f2 * coarse) / (c2 - f2)
    assert richardson_refine(inverse_square(2.5), length, 3, n).tolist() == want.tolist()


# --- Sturm counts ----------------------------------------------------------------


def test_sturm_count_matches_dense_eigensolver():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        diag = rng.normal(scale=3.0, size=n)
        off = rng.normal(scale=2.0, size=n - 1)
        op = TridiagonalOperator(diag, off, 1.0)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        eigs = np.linalg.eigvalsh(dense)
        for lam in rng.normal(scale=5.0, size=6):
            assert sturm_count(op, float(lam)) == int(np.sum(eigs < lam))


def test_sturm_count_matches_characteristic_polynomial_signs():
    # leading principal minors p_k(lam) of (T - lam I): sign changes in the
    # sequence 1, p_1, ..., p_n count eigenvalues below lam
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        diag = rng.normal(size=n)
        off = rng.normal(size=n - 1)
        op = TridiagonalOperator(diag, off, 1.0)
        for lam in rng.normal(scale=2.0, size=4):
            p_prev, p = 1.0, diag[0] - lam
            changes = 1 if p < 0 else 0
            for i in range(1, n):
                p_prev, p = p, (diag[i] - lam) * p - off[i - 1] ** 2 * p_prev
                if (p < 0) != (p_prev < 0) and p != 0.0:
                    changes += 1
                # rescale to dodge overflow; sign pattern is what matters
                scale = max(abs(p), abs(p_prev))
                if scale > 1e100:
                    p /= scale
                    p_prev /= scale
            assert sturm_count(op, float(lam)) == changes


def test_count_only_pass_equals_the_full_sweep_and_the_dense_count():
    rng = np.random.default_rng(11)
    cases = [(np.zeros(5), np.zeros(4))]  # every pivot is clamped at x = 0
    for _ in range(30):
        n = int(rng.integers(2, 40))
        cases.append((rng.normal(scale=3.0, size=n), rng.normal(scale=2.0, size=n - 1)))
        # small integers with decoupled blocks: a shift on a diagonal entry that
        # starts a block (or on the first one) makes that pivot exactly zero
        diag = rng.integers(-3, 4, size=n).astype(float)
        off = rng.integers(-2, 3, size=n - 1).astype(float)
        off[rng.random(n - 1) < 0.4] = 0.0
        cases.append((diag, off))
    for diag, off in cases:
        off_sq = (off**2).tolist()
        args = diag.tolist(), [0.0, *off_sq]
        pivmin = fdsolver._pivmin(off_sq)
        eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        delta = 1e-9 * max(1.0, np.max(np.abs(eigs)))
        block_starts = [diag[0], *diag[1:][off == 0.0]]
        for x in [*block_starts, 0.0, *rng.normal(scale=5.0, size=6)]:
            below = fdsolver._count(*args, float(x), pivmin)
            full = fdsolver._sweep(*args, float(x), pivmin)
            assert below == full[0]
            # the count-and-G pass gives the full sweep's count and G bit for bit
            # (repr tells -0.0 from 0.0, and matches nan where a clamped pivot sends G)
            assert repr(fdsolver._count_g(*args, float(x), pivmin)) == repr(full[:2])
            assert below == sturm_count(TridiagonalOperator(diag, off, 1.0), float(x))
            # on a shift that is (up to rounding) an eigenvalue, either side is right
            assert np.sum(eigs < x - delta) <= below <= np.sum(eigs < x + delta)
            if not np.any(np.abs(eigs - x) < delta):
                assert below == np.sum(eigs < x)
    # the clamped pivots count as crossed
    assert sturm_count(TridiagonalOperator(np.zeros(5), np.zeros(4), 1.0), 0.0) == 5


def test_repeated_counts_on_one_operator_convert_it_once(monkeypatch):
    # the rows every pass reads used to be rebuilt from the arrays on every count
    conversions = []
    pivmin = fdsolver._pivmin
    monkeypatch.setattr(fdsolver, "_pivmin", lambda off_sq: conversions.append(1) or pivmin(off_sq))
    rng = np.random.default_rng(17)
    diag, off = rng.normal(scale=3.0, size=40), rng.normal(scale=2.0, size=39)
    op = TridiagonalOperator(diag, off, 1.0)
    eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for lam in rng.normal(scale=5.0, size=50):
        assert sturm_count(op, float(lam)) == np.sum(eigs < lam)
    assert eigenvalues_lowest(op, 4) == pytest.approx(eigs[:4], rel=1e-9, abs=1e-12)
    assert len(conversions) == 1
    # the operator keeps read-only copies, so the rows cannot go stale
    diag[:] = 0.0
    assert sturm_count(op, float(eigs[0]) + 1e-9) == 1
    with pytest.raises(ValueError):
        op.diagonal[0] = 0.0
    with pytest.raises(ValueError):
        op.off_diagonal[0] = 0.0


def test_exact_eigenvalue_shift_is_counted():
    # hitting an eigenvalue of a principal minor used to poison the pivot:
    # 1/h^2 is an eigenvalue of the leading 2x2 block but not of the matrix
    op = discretize(zero_potential, math.pi, 3)
    h = math.pi / 4.0
    assert sturm_count(op, 1.0 / h**2) == 1
    # at an exact matrix eigenvalue the strict count is a tie; it must still
    # bracket correctly on both sides
    lam = 2.0 / h**2
    assert sturm_count(op, lam * (1.0 - 1e-12)) == 1
    assert sturm_count(op, lam * (1.0 + 1e-12)) == 2
    assert sturm_count(op, lam) in (1, 2)


def test_uncoupled_levels_resolve_down_to_the_normal_floats(monkeypatch):
    # pivmin was 1e-290 without a coupled row: the level 8e-300 came out -1e-290
    assert eigenvalues_lowest(discretize(zero_potential, 1e150, 1), 1).tolist() == pytest.approx(
        [8e-300], rel=1e-6
    )
    # two corrections of ~1e-200 multiplied to 0 in the sign test, which then
    # missed every turn, and the steps went back and forth between two points
    sweeps = []
    sweep = fdsolver._sweep

    def counted(*args):
        sweeps.append(1)
        if len(sweeps) > 1000:
            raise RuntimeError("more than 1000 sweeps")
        return sweep(*args)

    monkeypatch.setattr(fdsolver, "_sweep", counted)
    for scale in (1e-160, 1e-200, 1e-280, 1e-300):
        diag = np.array([3.0, 1e-5, 0.2]) * scale
        got = eigenvalues_lowest(TridiagonalOperator(diag, np.zeros(2), 1.0), 3)
        # each level to within twice the bracket floor, the smallest normal float
        assert np.all(np.abs(got - np.sort(diag)) <= np.maximum(1e-9 * np.sort(diag), 5e-308))


# --- eigenvalue extraction --------------------------------------------------------


def test_free_box_spectrum():
    # eigenvalues of -psi'' on [0, pi] are 1, 4, 9, ...
    ev = eigenvalues_lowest(discretize(zero_potential, math.pi, 4000), 5)
    for n, val in enumerate(ev, start=1):
        assert val == pytest.approx(n * n, rel=1e-4)


def test_half_order_coefficient_vanishes():
    # omega = 1/2 zeroes the 1/s^2 term: plain box spectrum (n pi / L)^2
    length = 2.0
    ev = eigenvalues_lowest(discretize(inverse_square(0.5), length, 3000), 3)
    for n, val in enumerate(ev, start=1):
        assert val == pytest.approx((n * math.pi / length) ** 2, rel=1e-5)


def test_eigenvalues_sorted_and_validated():
    op = discretize(zero_potential, 1.0, 50)
    ev = eigenvalues_lowest(op, 6)
    assert np.all(np.diff(ev) > 0.0)
    with pytest.raises(ValueError):
        eigenvalues_lowest(op, 0)
    with pytest.raises(ValueError):
        eigenvalues_lowest(op, 51)


def test_cauchy_interlacing_on_nested_matrices():
    rng = np.random.default_rng(9)
    diag = rng.normal(size=21)
    off = rng.normal(size=20)
    big = TridiagonalOperator(diag, off, 1.0)
    small = TridiagonalOperator(diag[:20], off[:19], 1.0)
    ev_big = eigenvalues_lowest(big, 21)
    ev_small = eigenvalues_lowest(small, 20)
    for k in range(20):
        assert ev_big[k] <= ev_small[k] + 1e-12
        assert ev_small[k] <= ev_big[k + 1] + 1e-12


def _hard_spectra():
    """Seeded tridiagonals: decoupled blocks with repeated eigenvalues, constant
    diagonals and isolated very negative levels, besides general ones."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(6):
        n = int(rng.integers(2, 40))
        diag, off = rng.normal(scale=3.0, size=n), rng.normal(scale=2.0, size=n - 1)
        cases.append(pytest.param(diag, off, id=f"general-{i}"))
        # a few values shared by many blocks: repeated eigenvalues
        diag = rng.choice(rng.normal(scale=3.0, size=3), size=n)
        off = rng.normal(size=n - 1)
        off[rng.random(n - 1) < 0.5] = 0.0
        cases.append(pytest.param(diag, off, id=f"blocks-{i}"))
        cases.append(pytest.param(diag, np.zeros(n - 1), id=f"diagonal-{i}"))
        const = np.full(n, diag[0])
        cases.append(pytest.param(const, np.full(n - 1, -1.0), id=f"constant-{i}"))
        cases.append(pytest.param(const, np.zeros(n - 1), id=f"constant-uncoupled-{i}"))
        diag = rng.normal(size=n) + 2.0
        diag[0] = -rng.uniform(1e5, 1e7)
        cases.append(pytest.param(diag, -np.ones(n - 1), id=f"isolated-{i}"))
    # literal mode: -1/(4 sigma^2 s^2) at sigma = 1/sqrt(1 + 4 * 12^2)
    op = discretize(lambda s: -(1.0 + 4.0 * 144.0) / (4.0 * s * s), 1.0, 300)
    cases.append(pytest.param(op.diagonal, op.off_diagonal, id="literal"))
    return cases


@pytest.mark.parametrize("diag,off", _hard_spectra())
def test_lowest_eigenvalues_match_dense_solver(diag, off):
    op = TridiagonalOperator(diag, off, 1.0)
    dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    norm = max(abs(b) for b in op.gershgorin_bounds())
    count = min(op.size, 6)
    got = eigenvalues_lowest(op, count)
    assert got == pytest.approx(dense[:count], rel=1e-9, abs=1e-13 * norm)


@pytest.mark.parametrize("diag,off", _hard_spectra())
def test_each_eigenvalue_is_certified_by_counts(diag, off):
    op = TridiagonalOperator(diag, off, 1.0)
    norm = max(abs(b) for b in op.gershgorin_bounds())
    for k, lam in enumerate(eigenvalues_lowest(op, min(op.size, 12)), start=1):
        delta = 1e-9 * max(abs(lam), 2.220446049250313e-16 * norm)
        assert sturm_count(op, lam - delta) <= k - 1 < k <= sturm_count(op, lam + delta), k


def _starts(dense, top, count):
    exact = dense[:count]
    return {
        "exact": exact,
        "zero": np.zeros(count),
        "far-above": np.full(count, 10.0 * top),
        "reversed": exact[::-1],
        "duplicated": np.full(count, exact[-1]),
    }


@pytest.mark.parametrize("kind", ["exact", "zero", "far-above", "reversed", "duplicated"])
@pytest.mark.parametrize("diag,off", _hard_spectra())
def test_start_is_only_a_hint(diag, off, kind):
    op = TridiagonalOperator(diag, off, 1.0)
    dense = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    bottom, top = op.gershgorin_bounds()
    norm = max(abs(bottom), abs(top))
    count = min(op.size, 6)
    got = eigenvalues_lowest(op, count, start=_starts(dense, abs(top), count)[kind])
    assert got == pytest.approx(dense[:count], rel=1e-9, abs=1e-13 * norm)
    for k, lam in enumerate(got, start=1):
        delta = 1e-9 * max(abs(lam), 2.220446049250313e-16 * norm)
        assert sturm_count(op, lam - delta) <= k - 1 < k <= sturm_count(op, lam + delta), k


@pytest.mark.parametrize("start", [[1.0], [1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 3.0],
                                   [math.inf, 2.0, 3.0]])
def test_start_of_the_wrong_length_or_not_finite_is_refused(start):
    op = discretize(zero_potential, 1.0, 50)
    with pytest.raises(ValueError, match="start"):
        eigenvalues_lowest(op, 3, start=start)


def test_zero_matrix_brackets_close():
    # ||T|| = 0: the stopping tolerance must not vanish with it
    got = eigenvalues_lowest(TridiagonalOperator(np.zeros(4), np.zeros(3), 1.0), 4)
    assert np.all(np.abs(got) < 1e-280)


def _count_passes(monkeypatch):
    """Count every pass over an operator, keyed by (kind, operator size): "full"
    for an LDL^T sweep with G and H, "count_g" for a count-and-G pass and
    "count" for a count-only pass."""
    passes = {}
    for name, kind in (("_sweep", "full"), ("_count_g", "count_g"), ("_count", "count")):
        run = getattr(fdsolver, name)

        def counted(diag, *args, run=run, kind=kind):
            key = kind, len(diag)
            passes[key] = passes.get(key, 0) + 1
            return run(diag, *args)

        monkeypatch.setattr(fdsolver, name, counted)
    return passes


def _passes_on(passes, size):
    """Passes of every kind over the operator of this size."""
    return sum(n for (_, at), n in passes.items() if at == size)


def test_three_levels_at_20000_nodes_take_a_handful_of_sweeps(monkeypatch):
    # Sturm bisection took about 210 sweeps for this solve
    passes = _count_passes(monkeypatch)
    ev = eigenvalues_lowest(discretize(inverse_square(7.88987), 1.0, 20_000), 3)
    assert sum(passes.values()) <= 40
    for val, zero in zip(ev, specfun.bessel_j_zeros(7.88987, 3), strict=True):
        assert val == pytest.approx(zero**2, rel=1e-6)


@pytest.mark.parametrize("omega", [0.0, 0.3, 1.0, 7.88987, 25.0])
def test_fine_grid_starts_from_the_coarse_eigenvalues(monkeypatch, omega):
    # a cold solve takes 14-17 sweeps for three levels at omega >= 1/2, and
    # 42-51 below, from the Gershgorin bound
    passes = _count_passes(monkeypatch)
    refined = richardson_refine(inverse_square(omega), 1.0, 3, 2000)
    assert _passes_on(passes, 4000) <= 4 * 3
    if omega >= 1.0:
        # the first Newton correction from each coarse eigenvalue is below 1e-5
        # relative, so two counts certify its step: one count-and-G pass a level
        assert passes.get(("full", 4000), 0) == 0
        assert passes[("count_g", 4000)] <= 3
        assert passes[("count", 4000)] <= 6
    # the same extrapolation from a cold fine solve: the two fine solves agree
    # within their count brackets, eps ||T|| wide
    coarse = eigenvalues_lowest(discretize(inverse_square(omega), 1.0, 2000), 3)
    fine = eigenvalues_lowest(discretize(inverse_square(omega), 1.0, 4000), 3)
    c2, f2 = (1.0 / 2001) ** 2, (1.0 / 4001) ** 2
    assert refined == pytest.approx((c2 * fine - f2 * coarse) / (c2 - f2), rel=1e-8)


def _tol(op, v):
    """The solver's own tolerance: 1e-10 relative, floored at 2 eps ||T||."""
    bottom, top = op.gershgorin_bounds()
    return max(1e-10 * abs(v), 2.220446049250313e-16 * max(abs(bottom), abs(top)))


def _assert_closed_by_counts(op, values):
    for k, v in enumerate(values, start=1):
        t = 2.0 * _tol(op, v)
        assert sturm_count(op, v - t) < k <= sturm_count(op, v + t), (op.size, k)


@pytest.mark.parametrize("n", [50, 1000, 10_000])
@pytest.mark.parametrize("omega", [0.0, 0.3, 1.0, 7.89, 25.0])
def test_every_level_is_closed_by_counts_within_twice_the_tolerance(omega, n):
    op = discretize(inverse_square(omega), 1.0, n)
    cold = eigenvalues_lowest(op, 5)
    half = eigenvalues_lowest(discretize(inverse_square(omega), 1.0, n // 2), 5)
    for got in (cold, eigenvalues_lowest(op, 5, start=half)):
        _assert_closed_by_counts(op, got)


def _record_solves(monkeypatch):
    """Record every eigenvalues_lowest call as (operator, start, result)."""
    solves = []
    solve = fdsolver.eigenvalues_lowest

    def recorded(op, count, *, start=None):
        got = solve(op, count, start=start)
        solves.append((op, start, got))
        return got

    monkeypatch.setattr(fdsolver, "eigenvalues_lowest", recorded)
    return solves


@pytest.mark.parametrize("omega", [0.0, 0.3, 1.0, 7.89, 25.0])
def test_coarse_grid_starts_from_a_pilot_grid(monkeypatch, omega):
    # from the Gershgorin bound the coarse solve took 14-17 passes for three
    # levels at omega >= 1/2, and 42-51 below
    passes = _count_passes(monkeypatch)
    solves = _record_solves(monkeypatch)
    richardson_refine(inverse_square(omega), 1.0, 3, 10_000)
    assert _passes_on(passes, 10_000) <= 4 * 3
    # only the pilot, 1/16 as fine, is solved cold; every level of the warm
    # solves is still closed by counts on its own operator
    assert [(op.size, start is None) for op, start, _ in solves] == [
        (625, True), (10_000, False), (20_000, False)]
    for op, _, got in solves[1:]:
        _assert_closed_by_counts(op, got)


@pytest.mark.parametrize("grid", [400, 1500])
@pytest.mark.parametrize("omega", [0.0, 0.1, 1.0, 25.0])
def test_literal_mode_starts_each_finer_grid_from_the_last_ground_level(
    monkeypatch, tmp_path, omega, grid
):
    passes = _count_passes(monkeypatch)
    solves = _record_solves(monkeypatch)
    argv = ["oracle", "--omega", repr(omega), "--mode", "literal", "--grid", str(grid)]
    assert cli.main(argv + ["--output", str(tmp_path / "o.csv")]) == 0
    assert [(op.size, start is None) for op, start, _ in solves] == [
        (grid, True), (2 * grid, False), (4 * grid, False)]
    warm_passes = {n: _passes_on(passes, n) for n in (2 * grid, 4 * grid)}
    for op, _, warm in solves[1:]:
        passes.clear()
        cold = eigenvalues_lowest(op, 1)
        # node-weighted, with every kind of pass weighed as a full sweep; a
        # start right on the leading block's eigenvalue loses the sweep's H
        # to rounding and took as many passes as a cold solve at omega <= 0.1
        assert warm_passes[op.size] <= 8
        assert warm_passes[op.size] < _passes_on(passes, op.size)
        _assert_closed_by_counts(op, warm)
        assert abs(warm[0] - cold[0]) <= 4.0 * _tol(op, cold[0])


@pytest.mark.parametrize("levels,grid", [(150, 150), (3, 10), (3, 47), (3, 48)])
def test_oracle_on_grids_too_small_for_the_pilot(monkeypatch, tmp_path, capsys, levels, grid):
    # the pilot has grid // 16 nodes, at --grid 48 just the 3 levels' 3; below one
    # node a level the extrapolation made up the upper levels out of order, and
    # the command is refused before any solve
    solves = _record_solves(monkeypatch)
    out = tmp_path / "o.csv"
    argv = ["oracle", "--omega", "1", "--levels", str(levels), "--grid", str(grid)]
    if grid < 16 * levels:
        assert cli.main(argv + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"--grid {16 * levels} or more" in err
        assert solves == [] and not out.exists()
        with pytest.raises(ValueError, match="16 a level"):
            richardson_refine(inverse_square(1.0), 1.0, levels, grid)
        return
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert [op.size for op, _, _ in solves] == [grid // 16, grid, 2 * grid]
    # the extrapolation from a cold coarse solve, as before the pilot: its
    # coarse and fine values agree within their count brackets, so the
    # printed 10 digits stay put
    W = inverse_square(1.0)
    coarse = eigenvalues_lowest(discretize(W, 1.0, grid), levels)
    fine = eigenvalues_lowest(discretize(W, 1.0, 2 * grid), levels, start=coarse)
    c2, f2 = (1.0 / (grid + 1)) ** 2, (1.0 / (2 * grid + 1)) ** 2
    rows = np.loadtxt(out, delimiter=",", skiprows=3, ndmin=2)
    assert rows[:, 2] == pytest.approx((c2 * fine - f2 * coarse) / (c2 - f2), rel=1e-9)


def test_second_order_convergence():
    exact = math.pi**2
    errs = []
    hs = []
    for n in (128, 256, 512, 1024):
        ev = eigenvalues_lowest(discretize(zero_potential, 1.0, n), 1)
        errs.append(abs(ev[0] - exact))
        hs.append(1.0 / (n + 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


# --- Richardson refinement ---------------------------------------------------------


def test_richardson_free_box_ground_state():
    refined = richardson_refine(zero_potential, 1.0, 1, 2000)
    assert abs(refined[0] - math.pi**2) < 1e-8


def test_richardson_beats_both_grids():
    exact = math.pi**2
    coarse = eigenvalues_lowest(discretize(zero_potential, 1.0, 500), 1)[0]
    fine = eigenvalues_lowest(discretize(zero_potential, 1.0, 1000), 1)[0]
    refined = richardson_refine(zero_potential, 1.0, 1, 500)[0]
    assert abs(refined - exact) < abs(fine - exact) < abs(coarse - exact)


@pytest.mark.parametrize(
    "omega,n_coarse,rtol",
    [
        (0.3, 10_000, 1e-3),
        (7.88987, 4_000, 1e-4),
        (13.3537, 4_000, 1e-3),
        (16.6592, 4_000, 1e-3),
        (23.5649, 4_000, 1e-3),
    ],
)
def test_refined_spectrum_matches_bessel_zeros(omega, n_coarse, rtol):
    # the central cross-check: finite differences against the analytic
    # s^(1/2) J_omega spectrum, eigenvalues (j_{omega,n}/L)^2
    refined = richardson_refine(inverse_square(omega), 1.0, 5, n_coarse)
    zeros = specfun.bessel_j_zeros(omega, 5)
    for n in range(1, 6):
        analytic = zeros[n - 1] ** 2
        assert refined[n - 1] == pytest.approx(analytic, rel=rtol)


def test_supercritical_attractive_potential_falls_to_center():
    # taking the attractive curvature potential at face value for sigma < 1:
    # the discrete ground level dives without bound as the grid refines
    sigma_sq = 0.004
    coeff = -1.0 / (4.0 * sigma_sq)
    grounds = []
    for n in (500, 1000, 2000):
        op = discretize(lambda s: coeff / (s * s), 1.0, n)
        grounds.append(eigenvalues_lowest(op, 1)[0])
    assert grounds[0] > grounds[1] > grounds[2]
    assert grounds[2] < 10.0 * grounds[0] < 0.0


def test_operator_validation():
    with pytest.raises(ValueError):
        TridiagonalOperator(np.ones(3), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        TridiagonalOperator(np.array([1.0, math.nan]), np.ones(1), 0.1)
