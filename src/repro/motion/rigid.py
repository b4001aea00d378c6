"""Rigid-body state with quaternion attitude.

The 6-DOF state is (position, velocity, attitude quaternion, body
angular rates).  Quaternions avoid gimbal lock for arbitrary store
tumbling and compose cheaply into the :class:`repro.grids.RigidMotion`
transforms the grid system consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grids.motion import RigidMotion


class Quaternion:
    """Unit quaternion (scalar-first convention)."""

    __slots__ = ("q",)

    def __init__(self, w: float, x: float, y: float, z: float):
        self.q = np.array([w, x, y, z], dtype=float)

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Quaternion":
        a = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(a)
        if norm == 0:
            raise ValueError("axis must be nonzero")
        a = a / norm
        half = 0.5 * angle
        s = np.sin(half)
        return cls(np.cos(half), a[0] * s, a[1] * s, a[2] * s)

    def normalized(self) -> "Quaternion":
        n = np.linalg.norm(self.q)
        if n == 0:
            raise ValueError("zero quaternion")
        out = Quaternion(*(self.q / n))
        return out

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.normalized().q
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def derivative(self, omega_body: np.ndarray) -> np.ndarray:
        """dq/dt for body angular rates omega (rad/s)."""
        w, x, y, z = self.q
        p, q_, r = omega_body
        return 0.5 * np.array(
            [
                -x * p - y * q_ - z * r,
                w * p + y * r - z * q_,
                w * q_ + z * p - x * r,
                w * r + x * q_ - y * p,
            ]
        )

    def __repr__(self) -> str:
        return f"Quaternion({', '.join(f'{v:.6g}' for v in self.q)})"


@dataclass
class RigidBodyState:
    """Instantaneous 6-DOF state (3-D; 2-D bodies use the z-rotation)."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    attitude: Quaternion = field(default_factory=Quaternion.identity)
    omega_body: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def motion_from_reference(self, ndim: int = 3) -> RigidMotion:
        """Rigid transform taking reference-pose grid coordinates to the
        current pose (rotation about the body origin, then translation)."""
        R3 = self.attitude.rotation_matrix()
        if ndim == 3:
            return RigidMotion(R3, self.position.copy())
        return RigidMotion(R3[:2, :2], self.position[:2].copy())

    def copy(self) -> "RigidBodyState":
        return RigidBodyState(
            self.position.copy(),
            self.velocity.copy(),
            Quaternion(*self.attitude.q),
            self.omega_body.copy(),
        )
