import numpy as np
import pytest

from oldb2d import (
    PhysParams,
    StressField,
    determinant_rhs,
    divergence,
    laplacian,
    make_grid,
    rates,
    scalar_field,
    sim_state,
    step,
    strain_decompose,
    vector_field,
)
from oldb2d.checks import band_limited_admissible_state
from oldb2d.config import build_initial, parse_config
from oldb2d.fields import norms

from oracles import (
    fd_derivative,
    fd_derivative_2nd,
    fd_laplacian_2nd,
    measured_orders,
    taylor_green_velocity,
)

TWO_PI = 2.0 * np.pi
PARAMS = PhysParams(nu=0.01, kappa=0.01, k=1.0, bigK=1.0)


def const(grid, value):
    return scalar_field(grid, np.full((grid.n, grid.n), float(value)))


def uniform_state(grid, c0, rho0):
    zero = const(grid, 0)
    return sim_state(
        0.0,
        vector_field(grid, np.zeros((2, grid.n, grid.n))),
        StressField(zero, zero, const(grid, c0)),
        const(grid, rho0),
    )


class TestStrainDecompose:
    def test_zero(self, grid32):
        u = vector_field(grid32, np.zeros((2, 32, 32)))
        sd = strain_decompose(u)
        assert np.max(np.abs(sd.lam.values)) == 0.0
        assert np.max(np.abs(sd.mu.values)) == 0.0
        assert np.max(np.abs(sd.omega.values)) == 0.0

    def test_shear_against_fd_oracle(self, grid64):
        _, y = grid64.nodes()
        vals = np.stack([np.sin(y), np.zeros_like(y)])
        u = vector_field(grid64, vals)
        sd = strain_decompose(u)
        d2u1 = fd_derivative(vals[0], axis=1, h=grid64.spacing)
        assert np.max(np.abs(sd.lam.values)) <= 1e-13
        assert np.max(np.abs(sd.mu.values - 0.5 * d2u1)) <= 1e-8
        assert np.max(np.abs(sd.mu.values - 0.5 * np.cos(y))) <= 1e-13
        assert np.max(np.abs(sd.omega.values + np.cos(y))) <= 1e-13

    def test_taylor_green_strain(self, grid64):
        x, y = grid64.nodes()
        u = vector_field(grid64, taylor_green_velocity(x, y))
        sd = strain_decompose(u)
        assert np.max(np.abs(sd.lam.values - np.cos(x) * np.cos(y))) <= 1e-13
        assert np.max(np.abs(sd.mu.values)) <= 1e-13
        assert np.max(np.abs(sd.omega.values - 2.0 * np.sin(x) * np.sin(y))) <= 1e-13

    def test_gradient_reconstruction(self, grid32):
        state = band_limited_admissible_state(grid32, seed=11, kmax=4)
        sd = strain_decompose(state.u)
        u1 = state.u.component(0)
        u2 = state.u.component(1)
        from oldb2d import ddx

        # div u = 0 forces d1u1 = lam; the four gradient entries rebuild from
        # (lam, mu, omega).
        rebuilt = {
            (1, 1): sd.lam.values,
            (2, 1): sd.mu.values - 0.5 * sd.omega.values,
            (1, 2): sd.mu.values + 0.5 * sd.omega.values,
            (2, 2): -sd.lam.values,
        }
        direct = {
            (1, 1): ddx(u1, 1).values,
            (2, 1): ddx(u1, 2).values,
            (1, 2): ddx(u2, 1).values,
            (2, 2): ddx(u2, 2).values,
        }
        for key in rebuilt:
            assert np.max(np.abs(rebuilt[key] - direct[key])) <= 1e-12


class TestRates:
    @pytest.mark.parametrize("n", [16, 32])
    def test_is_the_derivative_that_step_integrates(self, n):
        """(step(state, dt) - state) / dt tends to `rates` at first order."""
        cfg = parse_config(f"n={n}\npreset=random_admissible\nseed=0\n")
        state = build_initial(cfg, make_grid(n, cfg.length))
        r = rates(state, cfg.params)
        errors = [
            np.max(np.abs((step(state, dt, cfg.params).planes - state.planes) / dt - r))
            for dt in (4e-3, 2e-3, 1e-3, 5e-4)
        ]
        orders = measured_orders(errors)
        assert min(orders) >= 0.95, (errors, orders)


class TestStressRhs:
    """The stress planes (a, b, c) of `rates`."""

    def test_equilibrium_is_stationary(self, grid32):
        state = uniform_state(grid32, c0=2.0, rho0=1.0)
        assert np.max(np.abs(rates(state, PARAMS)[2:5])) <= 1e-13

    def test_uniform_linear_relaxation(self, grid32):
        c0, rho0 = 3.0, 1.0
        state = uniform_state(grid32, c0=c0, rho0=rho0)
        da, db, dc = rates(state, PARAMS)[2:5]
        expected = -2.0 * PARAMS.k * c0 + 4.0 * PARAMS.k * rho0
        assert np.allclose(dc, expected, atol=1e-13)
        assert np.max(np.abs(da)) <= 1e-14
        assert np.max(np.abs(db)) <= 1e-14

    def test_matches_matrix_form_fd_oracle(self):
        """Second-order finite differences on the matrix transport equation
        converge to the spectral assembly at order two under refinement."""

        def analytic_fields(grid):
            x, y = grid.nodes()
            u = 0.3 * taylor_green_velocity(x, y)
            a = 0.1 * np.cos(x)
            b = 0.1 * np.sin(y)
            c = 2.0 + 0.2 * np.cos(x) * np.cos(y)
            rho = 1.0 + 0.3 * np.sin(x) * np.sin(y)
            return u, a, b, c, rho

        def spectral_rates(grid):
            u, a, b, c, rho = analytic_fields(grid)
            state = sim_state(
                0.0,
                vector_field(grid, u),
                StressField(scalar_field(grid, a), scalar_field(grid, b),
                            scalar_field(grid, c)),
                scalar_field(grid, rho),
            )
            da, db, dc = rates(state, PARAMS)[2:5]
            # matrix components: s11 = c/2 + a, s12 = b, s22 = c/2 - a
            return 0.5 * dc + da, db, 0.5 * dc - da

        def fd_rates(grid):
            u, a, b, c, rho = analytic_fields(grid)
            h = grid.spacing
            s = {"11": 0.5 * c + a, "12": b, "22": 0.5 * c - a}
            dxu = {
                (i, j): fd_derivative_2nd(u[i - 1], axis=j - 1, h=h)
                for i in (1, 2) for j in (1, 2)
            }
            out = {}
            for key in ("11", "12", "22"):
                grad_terms = {
                    "11": 2.0 * (dxu[(1, 1)] * s["11"] + dxu[(1, 2)] * s["12"]),
                    "12": dxu[(1, 1)] * s["12"] + dxu[(1, 2)] * s["22"]
                    + s["11"] * dxu[(2, 1)] + s["12"] * dxu[(2, 2)],
                    "22": 2.0 * (dxu[(2, 1)] * s["12"] + dxu[(2, 2)] * s["22"]),
                }[key]
                adv = (u[0] * fd_derivative_2nd(s[key], 0, h)
                       + u[1] * fd_derivative_2nd(s[key], 1, h))
                relax = -2.0 * PARAMS.k * s[key]
                src = 2.0 * PARAMS.k * rho if key in ("11", "22") else 0.0
                out[key] = (-adv + grad_terms + relax + src
                            + PARAMS.kappa * fd_laplacian_2nd(s[key], h))
            return out["11"], out["12"], out["22"]

        errors = []
        for n in (32, 64, 128):
            grid = make_grid(n, TWO_PI)
            spec = spectral_rates(grid)
            fd = fd_rates(grid)
            errors.append(max(np.max(np.abs(s - f)) for s, f in zip(spec, fd)))
        orders = measured_orders(errors)
        assert min(orders) >= 1.9, (errors, orders)


class TestMomentumRhs:
    """The velocity planes of `rates`."""

    def test_uniform_stress_no_force(self, grid32):
        state = uniform_state(grid32, c0=3.0, rho0=1.0)
        assert np.max(np.abs(rates(state, PARAMS)[0:2])) <= 1e-13

    def test_isotropic_stress_is_pressure(self, grid32):
        # sigma = rho(x) I gives a pure gradient force, annihilated by the
        # projection.
        x, y = grid32.nodes()
        rho = 1.0 + 0.5 * np.cos(x) * np.sin(y)
        zero = const(grid32, 0)
        state = sim_state(
            0.0,
            vector_field(grid32, np.zeros((2, 32, 32))),
            StressField(zero, zero, scalar_field(grid32, 2.0 * rho)),
            scalar_field(grid32, rho),
        )
        assert np.max(np.abs(rates(state, PARAMS)[0:2])) <= 1e-12

    def test_taylor_green_reduces_to_viscosity(self, grid64):
        from oldb2d import leray_project

        x, y = grid64.nodes()
        u_vals = taylor_green_velocity(x, y)
        zero = const(grid64, 0)
        state = sim_state(
            0.0,
            vector_field(grid64, u_vals),
            StressField(zero, zero, zero),
            zero,
        )
        # The advective term is a pure gradient: its projection vanishes.
        adv = np.stack([
            u_vals[0] * fd_derivative(u_vals[0], 0, grid64.spacing)
            + u_vals[1] * fd_derivative(u_vals[0], 1, grid64.spacing),
            u_vals[0] * fd_derivative(u_vals[1], 0, grid64.spacing)
            + u_vals[1] * fd_derivative(u_vals[1], 1, grid64.spacing),
        ])
        projected = leray_project(vector_field(grid64, adv))
        assert np.max(np.abs(projected.values)) <= 1e-7  # fd oracle accuracy

        du = rates(state, PARAMS)[0:2]
        assert np.max(np.abs(du + 2.0 * PARAMS.nu * u_vals)) <= 1e-12

    def test_output_divergence_free(self, grid32):
        state = band_limited_admissible_state(grid32, seed=12, kmax=4)
        du = vector_field(grid32, rates(state, PARAMS)[0:2])
        scale = np.sqrt(np.sum(grid32.weights * np.abs(du.coeffs) ** 2)) + 1e-300
        assert np.max(np.abs(divergence(du).coeffs)) <= 1e-12 * scale


class TestRhoRhs:
    """The density plane of `rates`: the dealiased advection -u.grad(rho)."""

    def test_uniform_rho(self, grid32):
        state = band_limited_admissible_state(grid32, seed=13, kmax=4)
        state = sim_state(0.0, state.u, state.stress, const(grid32, 1.0))
        assert np.max(np.abs(rates(state, PARAMS)[5])) <= 1e-13

    def test_zero_velocity(self, grid32):
        state = uniform_state(grid32, c0=2.0, rho0=1.0)
        x, y = grid32.nodes()
        state = sim_state(0.0, state.u, state.stress,
                          scalar_field(grid32, 1.0 + 0.3 * np.cos(x)))
        assert np.max(np.abs(rates(state, PARAMS)[5])) == 0.0

    def test_streamline_constant_density(self, grid32):
        # u = perp-grad(psi) advects psi to itself: u . grad(psi) = 0
        # pointwise, because the two product terms cancel algebraically.
        from oldb2d.config import band_limited_random
        from oldb2d.spectral import irfft2, rfft2

        rng = np.random.default_rng(14)
        psi = band_limited_random(grid32, rng, 4)
        psih = rfft2(psi)
        u = irfft2(np.stack([-grid32.iky * psih, grid32.ikx * psih]), 32)
        zero = const(grid32, 0)
        state = sim_state(
            0.0,
            vector_field(grid32, u),
            StressField(zero, zero, const(grid32, 2)),
            scalar_field(grid32, psi + 2.0),  # rho > 0 shifted streamfunction
        )
        drho = rates(state, PARAMS)[5]
        scale = np.max(np.abs(u)) * np.max(np.abs(psi)) + 1e-300
        assert np.max(np.abs(drho)) <= 1e-13 * max(1.0, scale)

    def test_integral_vanishes(self, grid32):
        state = band_limited_admissible_state(grid32, seed=15, kmax=4)
        drho = rates(state, PARAMS)[5]
        scale = np.max(np.abs(drho)) + 1e-300
        assert abs(np.mean(drho)) * state.grid.area <= 1e-12 * max(1.0, scale)


class TestDeterminantRhs:
    def test_equilibrium_stationary(self, grid32):
        params0 = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)
        state = uniform_state(grid32, c0=2.0, rho0=1.0)
        assert np.max(np.abs(determinant_rhs(state, params0).values)) <= 1e-14

    def test_uniform_substitution(self, grid32):
        params0 = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)
        c0, rho0 = 3.0, 1.0
        state = uniform_state(grid32, c0=c0, rho0=rho0)
        got = determinant_rhs(state, params0).values
        expected = -params0.k * c0 * c0 + 2.0 * params0.k * rho0 * c0
        assert np.allclose(got, expected, atol=1e-12)

    def test_requires_zero_kappa(self, grid32):
        state = uniform_state(grid32, c0=2.0, rho0=1.0)
        with pytest.raises(ValueError, match="kappa"):
            determinant_rhs(state, PARAMS)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_cancellation_identity(self, seed):
        """The stress-rate combination (c/2) dc - 2a da - 2b db collapses to
        the closed determinant law; on band-limited states the dealiasing
        mask never bites, so the identity holds to rounding."""
        grid = make_grid(32, TWO_PI)
        params0 = PhysParams(nu=0.01, kappa=0.0, k=1.0, bigK=1.0)
        state = band_limited_admissible_state(grid, seed=seed, kmax=3)
        a, b, c = state.planes[2:5]
        da, db, dc = rates(state, params0)[2:5]
        combo = 0.5 * c * dc - 2.0 * a * da - 2.0 * b * db
        law = determinant_rhs(state, params0).values
        assert np.max(np.abs(combo - law)) <= 1e-10


class TestEnergyRateIdentity:
    @pytest.mark.parametrize("seed", [31, 32])
    def test_energy_rate_inequality(self, seed):
        grid = make_grid(32, TWO_PI)
        state = band_limited_admissible_state(grid, seed=seed, kmax=4)
        r = rates(state, PARAMS)
        u1, u2 = state.u.values
        lhs = np.mean(2.0 * (u1 * r[0] + u2 * r[1]) + PARAMS.bigK * r[4]) * grid.area
        rep = norms(state)
        rhs = (
            -2.0 * PARAMS.nu * rep["grad_u_L2"] ** 2
            - 2.0 * PARAMS.k * PARAMS.bigK * rep["sigma_L1"]
            + 4.0 * PARAMS.k * PARAMS.bigK * np.mean(state.rho.values) * grid.area
        )
        scale = abs(rhs) + rep["u_L2"] ** 2 + 1.0
        assert lhs <= rhs + 1e-8 * scale

    def test_cubic_cancellation(self):
        grid = make_grid(32, TWO_PI)
        state = band_limited_admissible_state(grid, seed=33, kmax=4)
        strain = strain_decompose(state.u)
        u1, u2 = state.u.values
        # The projected force, from the velocity rate less its viscous part,
        # does the same work against a divergence-free u.
        force = rates(state, PARAMS)[0:2]
        visc = PARAMS.nu * np.stack([
            laplacian(state.u.component(0)).values,
            laplacian(state.u.component(1)).values,
        ])
        work = np.mean(2.0 * (u1 * (force[0] - visc[0])
                              + u2 * (force[1] - visc[1]))) * grid.area
        stretch = 4.0 * PARAMS.bigK * np.mean(
            strain.lam.values * state.stress.a.values
            + strain.mu.values * state.stress.b.values
        ) * grid.area
        scale = (np.max(np.abs(u1)) + np.max(np.abs(state.stress.c.values)) + 1.0) ** 3
        assert abs(work + stretch) <= 1e-9 * scale
