"""Trajectory integration, drift measurement, Lyapunov estimation."""

import hashlib
import math
import random

import numpy as np
import pytest

from darbouxlab.darboux import (assemble_darboux_integrals, search_darboux,
                                search_exp_factors)
from darbouxlab.exactcore import parse_poly
from darbouxlab import numerics
from darbouxlab.field import parse_field
from darbouxlab.numerics import (NonFiniteStateError, _DormandPrince,
                                 _field_sources, _tangent_sources, compile_rhs,
                                 conservation_drift, emit_csv, jacobian_at,
                                 lyapunov_max, simulate)

from conftest import make_lv3


@pytest.fixture(scope="module")
def integrable_field():
    return make_lv3(0, 0, 0)


@pytest.fixture(scope="module")
def integrable_trajectory(integrable_field):
    return simulate(integrable_field, (0.5, 0.5, 1.0), 100.0)


@pytest.fixture(scope="module")
def conserved_quantities(integrable_field):
    funcs = assemble_darboux_integrals(search_darboux(integrable_field, 2),
                                       search_exp_factors(integrable_field, 2, 0))
    h1 = next(f for f in funcs if f.exp_terms)
    h2 = next(f for f in funcs if not f.exp_terms)
    return h1, h2


def test_decoupled_z_stays_exact(integrable_trajectory):
    assert np.all(integrable_trajectory.states[:, 2] == 1.0)
    assert np.all(np.diff(integrable_trajectory.times) > 0)


def test_plane_invariance_bit_exact(reference_field):
    traj = simulate(reference_field, (0.0, 1.0, 2.0), 50.0)
    assert np.all(traj.states[:, 0] == 0.0)


def test_chaotic_parameters_bounded(reference_field):
    traj = simulate(reference_field, (0.5, 1.0, 2.0), 200.0)
    assert np.isfinite(traj.states).all()
    assert np.abs(traj.states).max() < 100.0


def test_nonfinite_detected():
    X = parse_field("vars: x\ndx/dt = x^2\n")  # finite-time blow-up
    with pytest.raises(NonFiniteStateError):
        simulate(X, (1.0,), 5.0)


def test_adaptive_step_cap(monkeypatch, reference_field):
    # the adaptive loop refuses to go on once the cap of trial steps per
    # call is used up, also across the Lyapunov renormalisation intervals
    monkeypatch.setattr(numerics, "MAX_STEPS", 1000)
    with pytest.raises(ValueError, match="more than 1000 integrator steps"):
        simulate(reference_field, (0.5, 1.0, 2.0), 1e6)
    with pytest.raises(ValueError, match="more than 1000 integrator steps"):
        lyapunov_max(reference_field, (0.5, 1.0, 2.0), 400.0, 0.5)
    assert len(simulate(reference_field, (0.5, 1.0, 2.0), 1.0)) < 1000


def test_drift_of_conserved_quantity(integrable_trajectory, conserved_quantities):
    h1, _ = conserved_quantities
    report = conservation_drift(integrable_trajectory, h1)
    assert report.relative_drift <= 1e-6


def test_drift_of_decoupled_coordinate(integrable_trajectory, conserved_quantities):
    _, h2 = conserved_quantities
    report = conservation_drift(integrable_trajectory, h2)
    assert report.max_abs_drift == 0.0


def test_not_conserved_at_chaotic_parameters(reference_field,
                                             conserved_quantities):
    h1, _ = conserved_quantities
    traj = simulate(reference_field, (0.5, 1.0, 2.0), 200.0)

    def h1_eval(state):
        x, y = state[0], state[1]
        return x * y * math.exp(-x - y)

    report = conservation_drift(traj, h1_eval, name="xy*exp(-x-y)")
    assert report.relative_drift >= 0.01


def test_rk4_order_four_scaling(integrable_field, conserved_quantities):
    h1, _ = conserved_quantities
    drifts = []
    for dt in (0.02, 0.01):
        traj = simulate(integrable_field, (0.5, 0.5, 1.0), 20.0, dt=dt)
        drifts.append(conservation_drift(traj, h1).max_abs_drift)
    ratio = drifts[0] / drifts[1]
    assert 8.0 <= ratio <= 32.0  # 16x within a factor of two


def test_rk4_order_scaling_random_instances(integrable_field,
                                            conserved_quantities):
    h1, _ = conserved_quantities
    rng = random.Random(7)
    for _ in range(100):
        x0 = (rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8), 1.0)
        coarse = conservation_drift(
            simulate(integrable_field, x0, 2.0, dt=0.04), h1)
        fine = conservation_drift(
            simulate(integrable_field, x0, 2.0, dt=0.02), h1)
        assert fine.max_abs_drift < coarse.max_abs_drift
        if coarse.max_abs_drift > 1e-14:  # above rounding noise
            assert coarse.max_abs_drift / max(fine.max_abs_drift, 1e-300) > 8.0


def test_jacobian_matches_finite_differences(reference_field):
    rhs = compile_rhs(reference_field)
    rng = random.Random(11)
    out = np.empty(3)
    for _ in range(100):
        state = np.array([rng.uniform(0.2, 2.0) for _ in range(3)])
        jac = jacobian_at(reference_field, state)
        eps = 1e-7
        for j in range(3):
            bumped = state.copy()
            bumped[j] += eps
            fplus = rhs(0.0, bumped, np.empty(3)).copy()
            bumped[j] -= 2 * eps
            fminus = rhs(0.0, bumped, np.empty(3)).copy()
            fd = (fplus - fminus) / (2 * eps)
            scale = np.maximum(np.abs(jac[:, j]), 1.0)
            assert np.all(np.abs(fd - jac[:, j]) / scale < 1e-6)


def test_tangent_step_matches_jacobian(reference_field):
    # the generated right-hand side that lyapunov integrates, evaluated on
    # (x, e_j), carries column j of the analytic Jacobian exactly
    X = reference_field
    rhs = _DormandPrince(_field_sources(X) + _tangent_sources(X), 1e-8).rhs
    rng = random.Random(13)
    for _ in range(100):
        x = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        jac = jacobian_at(X, x)
        for j in range(3):
            e_j = [0.0, 0.0, 0.0]
            e_j[j] = 1.0
            assert rhs(tuple(x + e_j))[3:] == tuple(jac[:, j].tolist())


def test_lyapunov_linear_field():
    X = parse_field("vars: x\ndx/dt = 2*x\n")
    lam = lyapunov_max(X, (1.0,), 20.0, 0.5)
    assert abs(lam - 2.0) < 1e-3


def test_lyapunov_integrable_near_zero(integrable_field):
    # tangent growth on a periodic orbit is algebraic: the estimate decays
    # toward zero and is already below the slack at this horizon
    lam = lyapunov_max(integrable_field, (0.5, 0.5, 1.0), 2000.0, 0.5)
    assert abs(lam) <= 0.005


def test_csv_emission(tmp_path, integrable_field, conserved_quantities):
    h1, _ = conserved_quantities
    traj = simulate(integrable_field, (0.5, 0.5, 1.0), 1.0)
    out = tmp_path / "traj.csv"
    emit_csv(traj, out, [("H1", h1)])
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,z,H1"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == 1.0


def test_deterministic_repeat(reference_field):
    a = simulate(reference_field, (0.5, 1.0, 2.0), 10.0)
    b = simulate(reference_field, (0.5, 1.0, 2.0), 10.0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


# Trajectories pinned by sha256 of times.tobytes() and states.tobytes(), and
# the CLI's t_end = 2000 runs by final state and step counts.  The values
# were taken from the numpy-vector stage loop that the generated scalar step
# replaced; the generated step must reproduce it bit for bit.
PINNED_DIGESTS = {
    "reference": ((0.5, 1.0, 2.0),
                  "bc8f7e1c48fc4f330ffa3026a9154a10bea49b6d70d25562fc281c64a8801813",
                  "9bc069cbad3646d32b3477e2dcff989b7a0dff08708fc27b89fb11d12f4cc155"),
    "integrable": ((0.5, 0.5, 1.0),
                   "d92e1f35154c4ee3d8aec08439c95a3d9dcb9c2cf025dcd49a1cc4f8b9afa284",
                   "2e9ea29673a650a1101fbe7db6a117906b035b5f50242c6b8836c1e213c241b8"),
}
PINNED_FINAL = {
    "reference": ((0.5, 1.0, 2.0),
                  (1.0023284863109183, 0.8854526892513545, 0.7082771300527044),
                  34441, 0),
    "integrable": ((0.5, 0.5, 1.0),
                   (0.3701917521824893, 1.226678904570099, 1.0), 48243, 0),
}


# Fixed-step RK4 runs to t = 20 (x0, dt, times sha256, states sha256) and
# one Lyapunov estimate, taken from the numpy-vector RK4 loop and the
# numpy-state Dormand-Prince driver that the generated tuple steps replaced.
PINNED_RK4 = {
    "reference": ((0.5, 1.0, 2.0), 0.01,
                  "c78b2279b413838711dbd0aae9c3662911af9146c1ad15acabcec853dbb0a57a",
                  "e53de3674d643bc0981488636ae989f1e6af3d79a1e5312027b0c09d6b12193d"),
    "integrable": ((0.5, 0.5, 1.0), 0.02,
                   "a43c5694e9654af0a9899c76baef72858ac927ee4c56e96b7816c8d3a5207895",
                   "56f2789d0e70d47092c20f51ac337d8df4c23158cb7329dee604dc6f870537b1"),
}
PINNED_LYAPUNOV = -0.024599670695437007   # reference, (0.5, 1, 2), T = 50


@pytest.fixture(scope="module")
def pinned_fields(reference_field, integrable_field):
    return {"reference": reference_field, "integrable": integrable_field}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_pinned_trajectory_digests(pinned_fields, name):
    x0, times_sha, states_sha = PINNED_DIGESTS[name]
    traj = simulate(pinned_fields[name], x0, 200.0)
    assert hashlib.sha256(traj.times.tobytes()).hexdigest() == times_sha
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == states_sha


@pytest.mark.parametrize("name", sorted(PINNED_RK4))
def test_pinned_rk4_digests(pinned_fields, name):
    x0, dt, times_sha, states_sha = PINNED_RK4[name]
    traj = simulate(pinned_fields[name], x0, 20.0, dt=dt)
    assert hashlib.sha256(traj.times.tobytes()).hexdigest() == times_sha
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == states_sha


@pytest.mark.parametrize("name", sorted(PINNED_FINAL))
def test_pinned_final_states(pinned_fields, name):
    # the CLI's simulate defaults: adaptive pair, tol = 1e-10
    x0, final, accepted, rejected = PINNED_FINAL[name]
    traj = simulate(pinned_fields[name], x0, 2000.0, tol=1e-10)
    assert tuple(traj.states[-1].tolist()) == final
    assert traj.metadata["n_accepted"] == accepted
    assert traj.metadata["n_rejected"] == rejected


def test_lyapunov_deterministic_repeat(reference_field):
    a = lyapunov_max(reference_field, (0.5, 1.0, 2.0), 50.0, 0.5)
    b = lyapunov_max(reference_field, (0.5, 1.0, 2.0), 50.0, 0.5)
    assert a == b == PINNED_LYAPUNOV
