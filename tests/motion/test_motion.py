"""Tests for rigid-body state, the 6-DOF integrator, and prescribed motions."""

import numpy as np
import pytest

from repro.grids.motion import RigidMotion
from repro.motion import (
    Loads,
    PitchOscillation,
    Quaternion,
    RigidBodyState,
    SixDof,
    SteadyDescent,
    StoreSeparation,
)


class TestQuaternion:
    def test_identity_rotation(self):
        assert np.allclose(Quaternion.identity().rotation_matrix(), np.eye(3))

    def test_axis_angle_matches_rodrigues(self):
        q = Quaternion.from_axis_angle((0, 0, 1), np.pi / 2)
        R = q.rotation_matrix()
        assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_normalized(self):
        q = Quaternion(2.0, 0.0, 0.0, 0.0).normalized()
        assert np.allclose(q.q, [1, 0, 0, 0])

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0, 0, 0, 0).normalized()

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            Quaternion.from_axis_angle((0, 0, 0), 1.0)

    def test_derivative_magnitude(self):
        """|dq/dt| = |omega|/2 for a unit quaternion."""
        q = Quaternion.identity()
        dq = q.derivative(np.array([0.0, 0.0, 2.0]))
        assert np.linalg.norm(dq) == pytest.approx(1.0)


class TestRigidBodyState:
    def test_motion_from_reference_translation(self):
        s = RigidBodyState(position=np.array([1.0, 2.0, 3.0]))
        m = s.motion_from_reference()
        assert np.allclose(m.apply(np.zeros(3)), [1, 2, 3])

    def test_motion_2d_projection(self):
        s = RigidBodyState(
            position=np.array([1.0, 2.0, 0.0]),
            attitude=Quaternion.from_axis_angle((0, 0, 1), np.pi / 2),
        )
        m = s.motion_from_reference(ndim=2)
        assert m.ndim == 2
        assert np.allclose(m.apply(np.array([1.0, 0.0])), [1.0, 3.0])

    def test_copy_independent(self):
        s = RigidBodyState()
        c = s.copy()
        c.position[0] = 9.0
        assert s.position[0] == 0.0


class TestSixDof:
    def test_free_fall(self):
        """Constant force: analytic kinematics recovered by RK4."""
        body = SixDof(mass=2.0, inertia=1.0)
        g = np.array([0.0, -9.81 * 2.0, 0.0])  # force = m*g
        for _ in range(100):
            body.step(Loads(force=g), dt=0.01)
        t = 1.0
        assert body.state.position[1] == pytest.approx(-0.5 * 9.81 * t**2,
                                                       rel=1e-6)
        assert body.state.velocity[1] == pytest.approx(-9.81 * t, rel=1e-6)

    def test_constant_moment_spin_up(self):
        body = SixDof(mass=1.0, inertia=np.array([2.0, 2.0, 2.0]))
        for _ in range(100):
            body.step(Loads(moment=np.array([0.0, 0.0, 1.0])), dt=0.01)
        # omega = M t / I.
        assert body.state.omega_body[2] == pytest.approx(0.5, rel=1e-6)

    def test_attitude_integrates_rotation(self):
        body = SixDof(mass=1.0, inertia=1.0)
        body.state.omega_body = np.array([0.0, 0.0, np.pi])
        for _ in range(100):
            body.step(Loads(), dt=0.005)
        R = body.state.attitude.rotation_matrix()
        # Half a turn in 0.5 time units at omega = pi.
        want = Quaternion.from_axis_angle((0, 0, 1), np.pi * 0.5)
        assert np.allclose(R, want.rotation_matrix(), atol=1e-6)

    def test_quaternion_stays_unit(self):
        body = SixDof(mass=1.0, inertia=np.array([1.0, 2.0, 3.0]))
        body.state.omega_body = np.array([1.0, 2.0, 0.5])
        for _ in range(200):
            body.step(Loads(moment=np.array([0.1, -0.2, 0.05])), dt=0.01)
        assert np.linalg.norm(body.state.attitude.q) == pytest.approx(1.0)

    def test_torque_free_energy_conserved(self):
        """Rotational kinetic energy is conserved in torque-free motion."""
        body = SixDof(mass=1.0, inertia=np.array([1.0, 2.0, 3.0]))
        body.state.omega_body = np.array([0.3, 0.5, 0.2])

        def energy():
            om = body.state.omega_body
            return 0.5 * float(np.sum(body.inertia * om * om))

        e0 = energy()
        for _ in range(500):
            body.step(Loads(), dt=0.01)
        assert energy() == pytest.approx(e0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="mass"):
            SixDof(mass=0.0, inertia=1.0)
        with pytest.raises(ValueError, match="inertia"):
            SixDof(mass=1.0, inertia=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="dt"):
            SixDof(mass=1.0, inertia=1.0).step(Loads(), dt=0.0)

    def test_run_returns_trajectory(self):
        body = SixDof(mass=1.0, inertia=1.0)
        traj = body.run(lambda s, t: Loads(), dt=0.1, nsteps=5)
        assert len(traj) == 5


class TestPitchOscillation:
    def test_paper_parameters(self):
        m = PitchOscillation()
        assert m.alpha0 == pytest.approx(np.deg2rad(5.0))
        assert m.omega == pytest.approx(np.pi / 2)

    def test_alpha_at_quarter_period(self):
        m = PitchOscillation()
        assert m.alpha(1.0) == pytest.approx(np.deg2rad(5.0))

    def test_zero_at_t0(self):
        assert PitchOscillation().at(0.0).is_identity()

    def test_pitch_center_fixed(self):
        m = PitchOscillation(center=(0.25, 0.0))
        motion = m.at(0.7)
        assert np.allclose(motion.apply(np.array([0.25, 0.0])), [0.25, 0.0])


class TestSteadyDescent:
    def test_linear_in_time(self):
        m = SteadyDescent(velocity=(0.0, -0.064, 0.0))
        p = m.at(10.0).apply(np.zeros(3))
        assert np.allclose(p, [0.0, -0.64, 0.0])

    def test_displacement_rate_constant(self):
        m = SteadyDescent(velocity=(0.0, -0.064, 0.0))
        r1 = m.displacement_rate(0.0, 0.1)
        r2 = m.displacement_rate(5.0, 0.1)
        assert r1 == pytest.approx(r2)
        assert r1 == pytest.approx(0.0064)


class TestStoreSeparation:
    def test_store_drops_and_accelerates(self):
        m = StoreSeparation()
        y1 = m.at(1.0).apply(np.array([0.5, 0.0, 0.0]))[1]
        y2 = m.at(2.0).apply(np.array([0.5, 0.0, 0.0]))[1]
        assert y1 < 0
        assert (0 - y2) > 2 * (0 - y1)  # accelerating

    def test_nose_pitches_down(self):
        m = StoreSeparation(center=(0.5, 0.0, 0.0))
        nose = np.array([0.0, 0.0, 0.0])  # ahead of the pivot
        tail = np.array([1.0, 0.0, 0.0])
        n1 = m.at(2.0).apply(nose)
        t1 = m.at(2.0).apply(tail)
        assert n1[1] < t1[1]  # nose below tail

    def test_pitch_saturates(self):
        m = StoreSeparation(pitch_rate=1.0, max_pitch=np.deg2rad(20))
        a = m.at(10.0)
        b = m.at(20.0)
        # Rotation part identical once saturated.
        assert np.allclose(a.rotation, b.rotation)

    def test_identity_at_t0(self):
        assert StoreSeparation().at(0.0).is_identity()
