"""Synthetic grid generators for the paper's test problems.

The paper's grid systems (NACA 0012 airfoil system, delta wing + pipe
jet, wing/pylon/finned-store, X-38) came from NASA grid files we do not
have; these generators produce analytically-defined grids with the same
*structure*: body-fitted O-grids with viscous wall clustering, annular
intermediate grids, uniform Cartesian backgrounds, extruded 3-D wing
grids, and bodies of revolution for stores.  Case modules
(:mod:`repro.cases`) assemble them to match the paper's gridpoint
counts and IGBP/gridpoint ratios.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.grids.structured import BoundaryFace, CurvilinearGrid


# ----------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------


def sizer(scale: float, ndim: int) -> Callable[..., int]:
    """Index sizes for ``scale`` times a case's point count: ``n`` times
    the ``ndim``-th root of ``scale``, rounded, at least ``floor``."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    s = math.sqrt(scale) if ndim == 2 else scale ** (1.0 / 3.0)
    return lambda n, floor=7: max(floor, int(round(n * s)))

def naca0012_thickness(x: np.ndarray, chord: float = 1.0) -> np.ndarray:
    """Half-thickness of a NACA 0012 section (closed trailing edge)."""
    xc = np.clip(np.asarray(x, dtype=float) / chord, 0.0, 1.0)
    t = 0.12
    # Standard 4-digit polynomial with the -0.1036 closed-TE coefficient.
    y = (t / 0.2) * (
        0.2969 * np.sqrt(xc)
        - 0.1260 * xc
        - 0.3516 * xc**2
        + 0.2843 * xc**3
        - 0.1036 * xc**4
    )
    return y * chord


def ogive_cylinder_radius(
    s: np.ndarray,
    length: float = 1.0,
    radius: float = 0.08,
    min_fraction: float = 1e-3,
) -> np.ndarray:
    """Radius profile of a generic finned-store body: ogive nose,
    cylindrical middle, boat-tail; ``s`` in [0, length].

    ``min_fraction`` floors the radius (relative to ``radius``): the
    default keeps a near-pointed nose; larger values blunt it, which
    also relaxes the CFL-limited timestep of solvers running on the
    resulting grid (the nose cells set the smallest cell size).
    """
    s = np.asarray(s, dtype=float)
    nose = 0.3 * length
    tail = 0.8 * length
    r = np.full_like(s, radius)
    in_nose = s < nose
    r[in_nose] = radius * np.sqrt(np.clip(s[in_nose] / nose, 0.0, 1.0) * (2 - s[in_nose] / nose))
    in_tail = s > tail
    frac = (s[in_tail] - tail) / (length - tail)
    r[in_tail] = radius * (1 - 0.5 * frac)
    return np.maximum(r, min_fraction * radius)


def _cluster(s: np.ndarray, beta: float) -> np.ndarray:
    """One-sided exponential clustering of s in [0,1] toward s=0."""
    if beta == 0:
        return s
    return (np.exp(beta * s) - 1.0) / (np.exp(beta) - 1.0)


# ----------------------------------------------------------------------
# 2-D generators
# ----------------------------------------------------------------------

def airfoil_ogrid(
    name: str,
    ni: int = 121,
    nj: int = 41,
    radius: float = 1.0,
    chord: float = 1.0,
    center=(0.5, 0.0),
    cluster_beta: float = 3.0,
    viscous: bool = True,
    turbulence: bool = False,
) -> CurvilinearGrid:
    """O-grid around a NACA 0012 airfoil.

    i wraps around the body (seam point duplicated at i=0 and i=ni-1),
    j runs from the wall (j=0) to the outer overset fringe, with
    exponential clustering toward the wall for viscous resolution.
    """
    center = np.asarray(center, dtype=float)
    theta = np.linspace(0.0, 2.0 * np.pi, ni)
    # Cosine chordwise spacing: theta in [0, pi] upper TE->LE,
    # [pi, 2 pi] lower LE->TE.
    xs = chord * 0.5 * (1.0 + np.cos(theta))
    ys = naca0012_thickness(xs, chord) * np.where(theta <= np.pi, 1.0, -1.0)
    surface = np.stack([xs, ys], axis=-1)
    outer = center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    s = _cluster(np.linspace(0.0, 1.0, nj), cluster_beta)
    # Radial algebraic blend, shape (ni, nj, 2).
    xyz = surface[:, None, :] * (1.0 - s[None, :, None]) + outer[:, None, :] * s[None, :, None]
    return CurvilinearGrid(
        name,
        xyz,
        boundaries=(
            BoundaryFace("jmin", "wall"),
            BoundaryFace("jmax", "overset"),
            BoundaryFace("imin", "periodic"),
            BoundaryFace("imax", "periodic"),
        ),
        viscous=viscous,
        turbulence=turbulence,
    )


def annulus_grid(
    name: str,
    ni: int = 121,
    nj: int = 41,
    r_inner: float = 0.9,
    r_outer: float = 3.0,
    center=(0.5, 0.0),
    viscous: bool = False,
) -> CurvilinearGrid:
    """Annular (intermediate-field) grid: i around, j radial outward."""
    if r_inner >= r_outer:
        raise ValueError("r_inner must be < r_outer")
    center = np.asarray(center, dtype=float)
    theta = np.linspace(0.0, 2.0 * np.pi, ni)
    r = np.linspace(r_inner, r_outer, nj)
    xyz = center + r[None, :, None] * np.stack(
        [np.cos(theta), np.sin(theta)], axis=-1
    )[:, None, :]
    return CurvilinearGrid(
        name,
        xyz,
        boundaries=(
            BoundaryFace("jmin", "overset"),
            BoundaryFace("jmax", "overset"),
            BoundaryFace("imin", "periodic"),
            BoundaryFace("imax", "periodic"),
        ),
        viscous=viscous,
    )


def cartesian_background(
    name: str,
    lo,
    hi,
    dims,
    viscous: bool = False,
) -> CurvilinearGrid:
    """Uniformly spaced background grid materialised as curvilinear.

    Spacing may differ per direction (unlike :class:`CartesianGrid`,
    which is the strict seven-parameter uniform grid of section 5).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dims = tuple(int(d) for d in dims)
    axes = [np.linspace(lo[a], hi[a], dims[a]) for a in range(len(dims))]
    mesh = np.meshgrid(*axes, indexing="ij")
    xyz = np.stack(mesh, axis=-1)
    ndim = len(dims)
    faces = ["imin", "imax", "jmin", "jmax"] + (["kmin", "kmax"] if ndim == 3 else [])
    return CurvilinearGrid(
        name,
        xyz,
        boundaries=tuple(BoundaryFace(f, "farfield") for f in faces),
        viscous=viscous,
    )


# ----------------------------------------------------------------------
# 3-D generators
# ----------------------------------------------------------------------

def extruded_wing_grid(
    name: str,
    ni: int = 81,
    nj: int = 25,
    nk: int = 25,
    span: float = 1.0,
    root_chord: float = 1.0,
    taper: float = 1.0,
    sweep: float = 0.0,
    radius: float = 0.8,
    cluster_beta: float = 3.0,
    viscous: bool = True,
    turbulence: bool = False,
    symmetry_root: bool = False,
) -> CurvilinearGrid:
    """Wing grid: an airfoil O-grid cross-section extruded across span.

    i wraps the section, j is radial off the surface, k is spanwise.
    ``taper`` scales the tip chord relative to the root; ``sweep`` is a
    linear x-offset per unit span — together they approximate tapered /
    delta planforms.  With ``symmetry_root`` the kmin (root) plane is a
    symmetry/farfield boundary instead of an overset fringe — the
    standard half-span model.
    """
    zs = np.linspace(0.0, span, nk)
    sections = []
    for z in zs:
        frac = z / span if span > 0 else 0.0
        chord = root_chord * (1.0 - (1.0 - taper) * frac)
        chord = max(chord, 0.05 * root_chord)
        sec = airfoil_ogrid(
            "sec",
            ni=ni,
            nj=nj,
            radius=radius * max(chord / root_chord, 0.3),
            chord=chord,
            center=(0.5 * chord, 0.0),
            cluster_beta=cluster_beta,
        ).xyz
        sec = sec + np.array([sweep * frac, 0.0])  # sweep the section aft
        sections.append(sec)
    plane = np.stack(sections, axis=2)  # (ni, nj, nk, 2)
    zcoord = np.broadcast_to(zs[None, None, :, None], plane.shape[:-1] + (1,))
    xyz = np.concatenate([plane, zcoord], axis=-1)
    return CurvilinearGrid(
        name,
        xyz,
        boundaries=(
            BoundaryFace("jmin", "wall"),
            BoundaryFace("jmax", "overset"),
            BoundaryFace("imin", "periodic"),
            BoundaryFace("imax", "periodic"),
            BoundaryFace("kmin", "farfield" if symmetry_root else "overset"),
            BoundaryFace("kmax", "overset"),
        ),
        viscous=viscous,
        turbulence=turbulence,
    )


def body_of_revolution_grid(
    name: str,
    ni: int = 61,
    nj: int = 33,
    nk: int = 25,
    length: float = 1.0,
    body_radius: float = 0.08,
    outer_radius: float = 0.5,
    axis_origin=(0.0, 0.0, 0.0),
    cluster_beta: float = 3.0,
    viscous: bool = True,
    turbulence: bool = False,
    nose_bluntness: float = 1e-3,
) -> CurvilinearGrid:
    """O-grid around an ogive-cylinder store body.

    i is axial, j is circumferential (wraps), k is radial from the wall
    (k=0) to the outer overset fringe.  The body axis is +x from
    ``axis_origin``.
    """
    origin = np.asarray(axis_origin, dtype=float)
    s = np.linspace(0.0, length, ni)
    rb = ogive_cylinder_radius(s, length, body_radius, nose_bluntness)
    phi = np.linspace(0.0, 2.0 * np.pi, nj)
    rad = _cluster(np.linspace(0.0, 1.0, nk), cluster_beta)
    shape = (ni, nj, nk)
    r = np.broadcast_to(
        rb[:, None, None] + (outer_radius - rb[:, None, None]) * rad[None, None, :],
        shape,
    )
    x = np.broadcast_to(s[:, None, None], shape)
    y = r * np.cos(phi)[None, :, None]
    z = r * np.sin(phi)[None, :, None]
    xyz = origin + np.stack([np.array(x), y, z], axis=-1)
    return CurvilinearGrid(
        name,
        xyz,
        boundaries=(
            BoundaryFace("kmin", "wall"),
            BoundaryFace("kmax", "overset"),
            BoundaryFace("jmin", "periodic"),
            BoundaryFace("jmax", "periodic"),
            BoundaryFace("imin", "overset"),
            BoundaryFace("imax", "overset"),
        ),
        viscous=viscous,
        turbulence=turbulence,
    )


def fin_grid(
    name: str,
    ni: int = 25,
    nj: int = 17,
    nk: int = 13,
    root=(0.8, 0.08, 0.0),
    span: float = 0.15,
    chord: float = 0.15,
    thickness: float = 0.02,
    direction=(0.0, 1.0, 0.0),
    viscous: bool = True,
) -> CurvilinearGrid:
    """Small body-fitted grid around one store fin.

    Modelled as a sheared box hugging a thin flat-plate fin extending
    from ``root`` along ``direction``: i chordwise, j normal to the fin
    surface, k spanwise.
    """
    root = np.asarray(root, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    # Build an orthonormal frame (chordwise = +x assumed, span = d).
    cdir = np.array([1.0, 0.0, 0.0])
    ndir = np.cross(d, cdir)
    ndir /= np.linalg.norm(ndir)
    xi = np.linspace(-0.25 * chord, 1.25 * chord, ni)
    eta = np.linspace(-3.0 * thickness, 3.0 * thickness, nj)
    zeta = np.linspace(0.0, span, nk)
    xyz = (
        root
        + xi[:, None, None, None] * cdir
        + eta[None, :, None, None] * ndir
        + zeta[None, None, :, None] * d
    )
    return CurvilinearGrid(
        name,
        np.ascontiguousarray(xyz),
        boundaries=(
            BoundaryFace("imin", "overset"),
            BoundaryFace("imax", "overset"),
            BoundaryFace("jmin", "overset"),
            BoundaryFace("jmax", "overset"),
            BoundaryFace("kmin", "overset"),
            BoundaryFace("kmax", "overset"),
        ),
        viscous=viscous,
    )


def pipe_grid(
    name: str,
    ni: int = 33,
    nj: int = 33,
    nk: int = 49,
    radius: float = 0.1,
    length: float = 1.0,
    origin=(0.0, 0.0, 0.0),
    viscous: bool = True,
) -> CurvilinearGrid:
    """Cylindrical jet-pipe grid (delta-wing case): i circumferential,
    j radial, k axial along -y (a downward jet)."""
    origin = np.asarray(origin, dtype=float)
    theta = np.linspace(0.0, 2.0 * np.pi, ni)
    r = np.linspace(0.15 * radius, radius, nj)
    zeta = np.linspace(0.0, length, nk)
    shape = (ni, nj, nk)
    x = np.broadcast_to(
        r[None, :, None] * np.cos(theta)[:, None, None], shape
    )
    z = np.broadcast_to(
        r[None, :, None] * np.sin(theta)[:, None, None], shape
    )
    y = -np.broadcast_to(zeta[None, None, :], shape)
    xyz = origin + np.stack([np.array(x), np.array(y), np.array(z)], axis=-1)
    return CurvilinearGrid(
        name,
        np.ascontiguousarray(xyz),
        boundaries=(
            BoundaryFace("imin", "periodic"),
            BoundaryFace("imax", "periodic"),
            BoundaryFace("jmax", "wall"),
            BoundaryFace("jmin", "overset"),
            BoundaryFace("kmin", "overset"),
            BoundaryFace("kmax", "overset"),
        ),
        viscous=viscous,
    )
