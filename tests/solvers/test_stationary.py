"""Tests for the stationary iterative methods."""

import numpy as np
import pytest

from repro.solvers import GaussSeidelSolver, JacobiSolver, SORSolver, SSORSolver
from repro.solvers.base import SolverInterrupt
from repro.sparse.matrices import diagonally_dominant


ALL_STATIONARY = [JacobiSolver, GaussSeidelSolver, SORSolver, SSORSolver]


class TestConvergence:
    @pytest.mark.parametrize("cls", ALL_STATIONARY)
    def test_converges_on_poisson(self, cls, poisson_medium):
        solver = cls(poisson_medium.A, rtol=1e-6, max_iter=20000)
        result = solver.solve(poisson_medium.b)
        assert result.converged
        rel_err = np.linalg.norm(result.x - poisson_medium.x_true) / np.linalg.norm(
            poisson_medium.x_true
        )
        assert rel_err < 1e-4

    @pytest.mark.parametrize("cls", ALL_STATIONARY)
    def test_converges_on_diagonally_dominant(self, cls):
        A = diagonally_dominant(80, density=0.08, seed=0)
        x_true = np.sin(np.arange(80) / 5.0)
        b = A @ x_true
        result = cls(A, rtol=1e-8, max_iter=5000).solve(b)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-5)

    def test_gauss_seidel_faster_than_jacobi(self, poisson_medium):
        jacobi = JacobiSolver(poisson_medium.A, rtol=1e-5, max_iter=20000).solve(
            poisson_medium.b
        )
        gs = GaussSeidelSolver(poisson_medium.A, rtol=1e-5, max_iter=20000).solve(
            poisson_medium.b
        )
        assert gs.iterations < jacobi.iterations

    def test_residual_history_monotone_overall(self, poisson_medium):
        result = JacobiSolver(poisson_medium.A, rtol=1e-5, max_iter=20000).solve(
            poisson_medium.b
        )
        norms = np.asarray(result.residual_norms)
        assert norms[-1] < norms[0]
        # Jacobi on SPD diagonally dominant systems decreases monotonically.
        assert np.all(np.diff(norms) <= 1e-12)


class TestInterface:
    def test_initial_guess_respected(self, poisson_medium):
        solver = JacobiSolver(poisson_medium.A, rtol=1e-6, max_iter=20000)
        result = solver.solve(poisson_medium.b, x0=poisson_medium.x_true.copy())
        assert result.iterations == 0
        assert result.converged

    def test_max_iter_limits(self, poisson_medium):
        solver = JacobiSolver(poisson_medium.A, rtol=1e-12, max_iter=5)
        result = solver.solve(poisson_medium.b)
        assert result.iterations == 5
        assert not result.converged

    def test_callback_receives_states(self, poisson_medium):
        seen = []
        solver = JacobiSolver(poisson_medium.A, rtol=1e-3, max_iter=1000)
        solver.solve(poisson_medium.b, callback=lambda s: seen.append(s.iteration))
        assert seen == list(range(1, len(seen) + 1))

    def test_callback_interrupt_propagates(self, poisson_medium):
        def boom(state):
            if state.iteration == 3:
                raise SolverInterrupt(state.iteration)

        solver = JacobiSolver(poisson_medium.A, rtol=1e-8, max_iter=1000)
        with pytest.raises(SolverInterrupt):
            solver.solve(poisson_medium.b, callback=boom)

    def test_iteration_offset_shifts_callback_indices(self, poisson_medium):
        seen = []
        solver = JacobiSolver(poisson_medium.A, rtol=1e-3, max_iter=1000)
        solver.solve(
            poisson_medium.b,
            callback=lambda s: seen.append(s.iteration),
            iteration_offset=100,
        )
        assert seen[0] == 101

    def test_rejects_preconditioner(self, poisson_medium):
        from repro.precond import JacobiPreconditioner

        with pytest.raises(ValueError):
            JacobiSolver(
                poisson_medium.A, preconditioner=JacobiPreconditioner(poisson_medium.A)
            )

    def test_zero_diagonal_rejected(self):
        A = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            JacobiSolver(A)

    def test_sor_omega_validation(self, poisson_medium):
        with pytest.raises(ValueError):
            SORSolver(poisson_medium.A, omega=2.5)

    def test_wrong_rhs_length(self, poisson_medium):
        solver = JacobiSolver(poisson_medium.A)
        with pytest.raises(ValueError):
            solver.solve(np.ones(3))


class TestRestartBehaviour:
    def test_restart_from_perturbed_iterate_still_converges(self, poisson_medium):
        """A (lossy) restart of a stationary method converges to the same solution."""
        solver = JacobiSolver(poisson_medium.A, rtol=1e-6, max_iter=20000)
        full = solver.solve(poisson_medium.b)
        # Take the iterate halfway, perturb it within a relative bound, restart.
        snapshots = {}
        half = full.iterations // 2

        def capture(state):
            if state.iteration == half:
                snapshots["x"] = state.x

        solver.solve(poisson_medium.b, callback=capture)
        rng = np.random.default_rng(0)
        perturbed = snapshots["x"] * (1 + 1e-4 * rng.uniform(-1, 1, snapshots["x"].size))
        resumed = solver.solve(poisson_medium.b, x0=perturbed)
        assert resumed.converged
        assert np.allclose(resumed.x, full.x, atol=1e-3)


class TestJacobiMatvecs:
    """Each sweep reuses the residual the convergence test computed."""

    @pytest.mark.parametrize("rtol, max_iter", [(1e-12, 25), (1e-2, 10000)])
    def test_one_matvec_per_iteration(self, poisson_small, rtol, max_iter):
        solver = JacobiSolver(poisson_small.A, rtol=rtol, max_iter=max_iter)
        exact = solver.matvec
        calls = []

        def counted(x):
            calls.append(1)
            return exact(x)

        solver.matvec = counted
        iterates = [np.zeros(solver.n)]
        result = solver.solve(
            poisson_small.b, callback=lambda state: iterates.append(state.x)
        )
        assert result.iterations > 0
        assert len(calls) == result.iterations + 1
        assert len(iterates) == len(result.residual_norms)
        for x_k, res in zip(iterates, result.residual_norms):
            assert res == float(np.linalg.norm(poisson_small.b - exact(x_k)))
