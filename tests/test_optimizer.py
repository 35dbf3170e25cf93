import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import project_capped_simplex
from crocodai.errors import InfeasibleProblemError, ModelError
from crocodai.optimizer import QpProblem, debt_ceilings_from, kkt_check, min_variance


def random_psd(rng, m, scale=1.0):
    a = rng.normal(size=(m, m))
    return scale * (a @ a.T + 0.1 * np.eye(m))


weights_strategy = st.integers(2, 8).flatmap(
    lambda m: st.tuples(
        st.lists(st.floats(-5, 5), min_size=m, max_size=m),
        # cap sum stays >= 1 for any m >= 2, keeping the target nonempty
        st.lists(st.floats(0.51, 1.0), min_size=m, max_size=m),
    )
)


class TestProjection:
    @given(weights_strategy)
    @settings(max_examples=200, deadline=None)
    def test_projection_feasible(self, data):
        y, caps = np.asarray(data[0]), np.asarray(data[1])
        v = project_capped_simplex(y, caps)
        assert abs(v.sum() - 1.0) < 1e-9
        assert np.all(v >= -1e-12) and np.all(v <= caps + 1e-12)

    @given(weights_strategy, st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_projection_is_closest_point(self, data, seed):
        # optimality of a Euclidean projection: no random feasible point is
        # closer to y than the projection
        y, caps = np.asarray(data[0]), np.asarray(data[1])
        v = project_capped_simplex(y, caps)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            z = project_capped_simplex(rng.normal(size=len(y)) * 3.0, caps)
            assert np.linalg.norm(y - v) <= np.linalg.norm(y - z) + 1e-9

    def test_feasible_point_is_fixed(self):
        caps = np.array([0.5, 0.5, 0.5])
        v0 = np.array([0.2, 0.5, 0.3])
        assert project_capped_simplex(v0, caps) == pytest.approx(v0, abs=1e-12)

    def test_infeasible_caps_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            project_capped_simplex(np.array([0.5, 0.5]), np.array([0.3, 0.3]))


# working-set changes per asset: m is the most that any seeded family below
# takes (m = 2 with caps 1/m), so a start or a pivot rule that makes the loop
# wander fails here before it shows in the weights
WORK_PER_ASSET = 1


def solve(cov, caps):
    """`min_variance`, gated on its work: at most WORK_PER_ASSET * m working-set changes."""
    sol = min_variance(QpProblem(cov=cov, caps=caps))
    m = len(caps)
    assert sol.iterations <= WORK_PER_ASSET * m, f"{sol.iterations} working-set changes, m = {m}"
    return sol


class TestMinVariance:
    def test_two_asset_closed_form(self):
        s1, s2 = 0.3, 0.7
        sol = solve(np.diag([s1**2, s2**2]), np.ones(2))
        expected = s2**2 / (s1**2 + s2**2)
        assert abs(sol.weights[0] - expected) < 1e-6
        assert abs(sol.weights[1] - (1 - expected)) < 1e-6

    def test_identical_assets_uniform(self):
        m = 7
        sol = solve(np.eye(m) * 0.04, np.ones(m))
        assert sol.weights == pytest.approx(np.full(m, 1 / m), abs=1e-9)

    def test_kkt_residual_small_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = rng.integers(2, 9)
            cov = random_psd(rng, m)
            caps = np.clip(rng.uniform(0.2, 1.0, m), 2.0 / m, 1.0)
            sol = solve(cov, caps)
            assert sol.kkt_residual < 1e-6

    def test_dominates_random_feasible_portfolios(self):
        rng = np.random.default_rng(1)
        cov = random_psd(rng, 5)
        caps = np.full(5, 0.4)
        sol = solve(cov, caps)
        for _ in range(1000):
            z = project_capped_simplex(rng.normal(size=5), caps)
            assert sol.objective <= z @ cov @ z + 1e-12

    def test_tightening_caps_never_improves(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = 6
            cov = random_psd(rng, m)
            loose = solve(cov, np.ones(m))
            tight = solve(cov, np.full(m, 0.3))
            assert tight.objective >= loose.objective - 1e-12

    def test_argmin_invariant_to_cov_scaling(self):
        # per-slot return covariances are about 1e-5: the weights must not
        # depend on the units the returns are measured in
        rng = np.random.default_rng(3)
        cov = random_psd(rng, 4)
        caps = np.full(4, 0.6)
        a = solve(cov, caps)
        for scale in (37.0, 1e-5, 1e-8):
            b = solve(cov * scale, caps)
            assert a.weights == pytest.approx(b.weights, abs=1e-7)
            assert b.objective == pytest.approx(scale * a.objective, rel=1e-9)

    def test_exact_on_badly_scaled_covariances(self):
        # per-asset scales exp(N(0, 2)) spread the variances over ~8 decades
        rng = np.random.default_rng(4)
        for _ in range(12):
            m = int(rng.integers(3, 10))
            s = np.exp(rng.normal(0.0, 2.0, m))
            cov = random_psd(rng, m) * np.outer(s, s)
            caps = np.full(m, rng.uniform(1.0, 3.0) / m).clip(None, 1.0)
            sol = solve(cov, caps)
            scale = np.abs(cov).max()
            assert sol.kkt_residual <= 1e-11 * scale
            z = np.array([project_capped_simplex(rng.normal(size=m), caps) for _ in range(1000)])
            assert sol.objective <= np.einsum("ij,jk,ik->i", z, cov, z).min() + 1e-12 * scale

    @staticmethod
    def _zero_variance_cov(rng, m):
        # rank m-2, with the feasible portfolio w in its null space
        w = np.full(m, 1.0 / m)
        a = rng.normal(size=(m, m - 2))
        proj = np.eye(m) - np.outer(w, w) / (w @ w)
        cov = proj @ a @ a.T @ proj
        return (cov + cov.T) / 2

    @pytest.mark.parametrize("case", ["caps-1/m", "caps-sum-1", "caps-sum-below-1", "zero-cov",
                                      "identical", "zero-variance"])
    @pytest.mark.parametrize("m", [2, 3, 7, 12])
    def test_degenerate_problems_terminate_certified(self, case, m):
        rng = np.random.default_rng(m)
        caps = np.ones(m)
        cov = random_psd(rng, m)
        if case == "caps-1/m":  # the only feasible point
            caps = np.full(m, 1.0 / m)
        elif case == "caps-sum-1":  # unequal binary fractions that sum to exactly 1
            caps = np.array([2.0 ** -min(k + 1, m - 1) for k in range(m)])
        elif case == "caps-sum-below-1":  # the only point QpProblem admits, 5e-13 short of 1
            caps = np.full(m, (1.0 - 5e-13) / m)
        elif case == "zero-cov":
            cov = np.zeros((m, m))
        elif case == "identical":
            cov = np.full((m, m), 3e-5)
        else:
            cov = self._zero_variance_cov(rng, m)
        assert case != "caps-sum-1" or caps.sum() == 1.0
        sol = solve(cov, caps)
        scale = np.abs(cov).max()
        assert abs(sol.weights.sum() - 1.0) < 1e-12
        assert np.all(sol.weights >= 0.0) and np.all(sol.weights <= caps)
        assert sol.kkt_residual <= 1e-11 * scale
        if case in ("caps-1/m", "caps-sum-1", "caps-sum-below-1"):
            assert sol.weights == pytest.approx(caps, abs=1e-12)
        if case == "identical":
            assert sol.objective == pytest.approx(3e-5, rel=1e-12)
        if case == "zero-variance":
            assert sol.objective <= 1e-13 * scale

    def test_caps_bind(self):
        # one riskless asset, capped: the cap must be active at the optimum
        cov = np.diag([1e-6, 1.0, 1.0])
        sol = solve(cov, np.array([0.2, 1.0, 1.0]))
        assert sol.weights[0] == pytest.approx(0.2, abs=1e-9)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleProblemError):
            QpProblem(cov=np.eye(3), caps=np.full(3, 0.2))

    def test_indefinite_rejected(self):
        with pytest.raises(ModelError):
            QpProblem(cov=np.array([[1.0, 2.0], [2.0, 1.0]]), caps=np.ones(2))
        # min eigenvalue -1e-9 is -1e-4 of max|cov|: the test is unit-free
        with pytest.raises(ModelError, match="positive semi-definite"):
            QpProblem(cov=np.array([[1e-5, 1.0001e-5], [1.0001e-5, 1e-5]]), caps=np.ones(2))

    @pytest.mark.parametrize("cov, caps", [
        ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0]),
    ], ids=["nan-cov", "inf-cov", "nan-cap"])
    def test_non_finite_input_rejected(self, cov, caps):
        # each used to be solved and certified with a KKT residual of 0
        with pytest.raises((ModelError, InfeasibleProblemError)):
            QpProblem(cov=np.array(cov), caps=np.array(caps))

    def test_slightly_indefinite_cov_terminates(self):
        # eigenvalues down to -1e-8 of max|cov| are admitted, as the model's
        # jittered Cholesky admits them; on a face with negative curvature
        # the KKT point is a saddle, where an unshifted loop cycled
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = 18
            a = rng.normal(size=(m, 6))
            w, u = np.linalg.eigh(a @ a.T)
            w = np.where(w < 1e-9 * w.max(), -rng.uniform(0.0, 9e-9) * np.abs(a @ a.T).max(), w)
            cov = (u * w) @ u.T
            caps = rng.uniform(1.0 / m, 1.0, m)
            sol = solve((cov + cov.T) / 2, caps)
            assert abs(sol.weights.sum() - 1.0) < 1e-12
            assert np.all(sol.weights >= 0.0) and np.all(sol.weights <= caps)
            assert sol.kkt_residual <= 1e-7 * np.abs(cov).max()


class TestKktCheck:
    def test_analytic_optimum_near_zero(self):
        problem = QpProblem(cov=np.diag([1.0, 2.0]), caps=np.ones(2))
        assert kkt_check(np.array([2 / 3, 1 / 3]), problem) < 1e-10

    def test_perturbed_optimum_flagged(self):
        problem = QpProblem(cov=np.diag([1.0, 2.0]), caps=np.ones(2))
        assert kkt_check(np.array([2 / 3 + 0.01, 1 / 3 - 0.01]), problem) > 1e-3

    def test_uniform_on_identical_assets(self):
        problem = QpProblem(cov=np.eye(4) * 0.09, caps=np.ones(4))
        assert kkt_check(np.full(4, 0.25), problem) < 1e-10

    def test_infeasible_input_rejected(self):
        problem = QpProblem(cov=np.eye(2), caps=np.ones(2))
        with pytest.raises(InfeasibleProblemError):
            kkt_check(np.array([0.9, 0.9]), problem)


class TestDebtCeilings:
    def test_formula(self):
        assert debt_ceilings_from(np.array([0.5]), 0.1) == pytest.approx([0.55])

    def test_cap_at_one(self):
        assert debt_ceilings_from(np.array([0.95]), 0.1) == pytest.approx([1.0])

    def test_zero_weight_zero_ceiling(self):
        assert debt_ceilings_from(np.array([0.0, 1.0]), 0.25)[0] == 0.0

    def test_beta_must_be_positive(self):
        with pytest.raises(ModelError):
            debt_ceilings_from(np.array([0.5]), 0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_beta_must_be_finite(self, beta):
        # nan made every ceiling NaN, and inf made a zero weight's ceiling NaN
        with pytest.raises(ModelError, match="beta"):
            debt_ceilings_from(np.array([0.0, 1.0]), beta)
