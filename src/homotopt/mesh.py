"""Structured triangulations of a rectangular design domain.

The rectangle is meshed by a uniform grid of cells, each split into two
triangles.  Boundary edges carry a tag: clamped (homogeneous Dirichlet),
loaded (nonzero Neumann traction), or free (homogeneous Neumann).  Tags are
assigned from axis-aligned boundary segments given in the domain spec.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

__all__ = [
    "GEOM_TOL",
    "EdgeTag",
    "BoundarySegment",
    "DomainSpec",
    "TriMesh",
    "bridge_domain",
    "build_structured_mesh",
    "dirichlet_vertex_set",
    "triangle_signed_areas",
]

# Vertex coordinates are exact multiples of the grid spacing, so segment
# membership is decided with an absolute tolerance.
GEOM_TOL = 1e-12


class EdgeTag(IntEnum):
    DIRICHLET_ZERO = 0
    NEUMANN_TRACTION = 1
    NEUMANN_FREE = 2


@dataclass(frozen=True)
class BoundarySegment:
    """Axis-aligned closed interval meant to lie on the rectangle boundary."""

    p0: tuple
    p1: tuple

    def __post_init__(self):
        object.__setattr__(self, "p0", (float(self.p0[0]), float(self.p0[1])))
        object.__setattr__(self, "p1", (float(self.p1[0]), float(self.p1[1])))
        dx = abs(self.p1[0] - self.p0[0])
        dy = abs(self.p1[1] - self.p0[1])
        if dx > GEOM_TOL and dy > GEOM_TOL:
            raise ValueError(f"boundary segment {self.p0}-{self.p1} is not axis-aligned")
        if dx <= GEOM_TOL and dy <= GEOM_TOL:
            raise ValueError("boundary segment must have positive length")

    @property
    def horizontal(self) -> bool:
        return abs(self.p1[1] - self.p0[1]) <= GEOM_TOL

    def contains(self, points, tol: float = GEOM_TOL) -> np.ndarray:
        """Whether each point (last axis: x, y) lies on the segment."""
        points = np.asarray(points, dtype=np.float64)
        x, y = points[..., 0], points[..., 1]
        if self.horizontal:
            lo, hi = sorted((self.p0[0], self.p1[0]))
            return (np.abs(y - self.p0[1]) <= tol) & (lo - tol <= x) & (x <= hi + tol)
        lo, hi = sorted((self.p0[1], self.p1[1]))
        return (np.abs(x - self.p0[0]) <= tol) & (lo - tol <= y) & (y <= hi + tol)


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular domain with tagged boundary segments and a traction vector."""

    width: float
    height: float
    dirichlet_segments: tuple = ()
    neumann_traction_segments: tuple = ()
    traction: tuple = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "height", float(self.height))
        object.__setattr__(self, "dirichlet_segments", tuple(self.dirichlet_segments))
        object.__setattr__(self, "neumann_traction_segments", tuple(self.neumann_traction_segments))
        object.__setattr__(self, "traction", (float(self.traction[0]), float(self.traction[1])))
        if self.width <= 0 or self.height <= 0:
            raise ValueError("domain width and height must be positive")
        for seg in self.dirichlet_segments + self.neumann_traction_segments:
            self._check_on_boundary(seg)
        self._check_disjoint(self.dirichlet_segments, "dirichlet_segments")
        self._check_disjoint(self.neumann_traction_segments, "neumann_traction_segments")

    def _check_on_boundary(self, seg: BoundarySegment) -> None:
        if seg.horizontal:
            y = seg.p0[1]
            on_side = abs(y) <= GEOM_TOL or abs(y - self.height) <= GEOM_TOL
            lo, hi = sorted((seg.p0[0], seg.p1[0]))
            inside = lo >= -GEOM_TOL and hi <= self.width + GEOM_TOL
        else:
            x = seg.p0[0]
            on_side = abs(x) <= GEOM_TOL or abs(x - self.width) <= GEOM_TOL
            lo, hi = sorted((seg.p0[1], seg.p1[1]))
            inside = lo >= -GEOM_TOL and hi <= self.height + GEOM_TOL
        if not (on_side and inside):
            raise ValueError(f"segment {seg.p0}-{seg.p1} does not lie on the domain boundary")

    @staticmethod
    def _check_disjoint(segments, name: str) -> None:
        def side_key(seg):
            if seg.horizontal:
                return ("h", round(seg.p0[1], 12))
            return ("v", round(seg.p0[0], 12))

        by_side: dict = {}
        for seg in segments:
            if seg.horizontal:
                lo, hi = sorted((seg.p0[0], seg.p1[0]))
            else:
                lo, hi = sorted((seg.p0[1], seg.p1[1]))
            by_side.setdefault(side_key(seg), []).append((lo, hi))
        for intervals in by_side.values():
            intervals.sort()
            for (lo0, hi0), (lo1, _hi1) in zip(intervals, intervals[1:]):
                if lo1 < hi0 - GEOM_TOL:
                    raise ValueError(f"{name} contains overlapping segments")


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Triangulation with counter-clockwise triangles and tagged boundary
    edges; ``mirror``, if given, maps each vertex to its image under the
    reflection that maps the triangulation onto itself."""

    vertices: np.ndarray       # (n_v, 2)
    triangles: np.ndarray      # (n_t, 3) vertex indices
    boundary_edges: np.ndarray  # (n_b, 2) vertex indices, CCW along the boundary
    boundary_tags: np.ndarray   # (n_b,) EdgeTag values
    mirror: Optional[np.ndarray] = None  # (n_v,) vertex indices, or None

    def __post_init__(self):
        for name in ("vertices", "triangles", "boundary_edges", "boundary_tags", "mirror"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def bridge_domain() -> DomainSpec:
    """Bridge-type design domain: 2.4 x 0.8, clamped near both bottom corners,
    unit downward traction on the bottom center."""
    return DomainSpec(
        width=2.4,
        height=0.8,
        dirichlet_segments=(
            BoundarySegment((0.0, 0.0), (0.12, 0.0)),
            BoundarySegment((2.28, 0.0), (2.4, 0.0)),
        ),
        neumann_traction_segments=(BoundarySegment((1.08, 0.0), (1.32, 0.0)),),
        traction=(0.0, -1.0),
    )


def build_structured_mesh(spec: DomainSpec, nx: int, ny: int, diagonal: str = "right") -> TriMesh:
    """Triangulate the rectangle with an (nx x ny) grid of split cells.

    ``diagonal="right"`` splits every cell along the lower-left to upper-right
    diagonal.  ``diagonal="mirrored"`` flips the split in the right half so the
    triangulation is symmetric under x -> width - x (requires even nx); that
    mesh records the reflection as its vertex ``mirror``, grid vertex (i, j)
    to (nx - i, j).
    A spec whose clamped or loaded segments catch no grid edge raises
    ``ValueError``: such a mesh has no supports or no load.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    if diagonal not in ("right", "mirrored"):
        raise ValueError(f"unknown diagonal pattern {diagonal!r}")
    if diagonal == "mirrored" and nx % 2 != 0:
        raise ValueError("mirrored diagonal pattern requires even nx")

    xs = np.linspace(0.0, spec.width, nx + 1)
    ys = np.linspace(0.0, spec.height, ny + 1)
    gx, gy = np.meshgrid(xs, ys)  # row j = constant y
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # cell (i, j) in row-major order: its lower-left vertex v00 is
    # j * (nx + 1) + i, and its two triangles share the diagonal v00-v11
    i = np.tile(np.arange(nx, dtype=np.int64), ny)
    v00 = np.repeat(np.arange(ny, dtype=np.int64), nx) * (nx + 1) + i
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    cells = np.column_stack([v00, v10, v11, v00, v11, v01])
    if diagonal == "mirrored":  # the right half's cells split along v10-v01
        flip = i >= nx // 2
        cells[flip] = np.column_stack([v00, v10, v01, v10, v11, v01])[flip]
    triangles = cells.reshape(-1, 3)

    # the boundary walked counter-clockwise from vertex (0, 0): bottom left
    # to right, right side upward, top right to left, left side downward
    grid = np.arange(vertices.shape[0], dtype=np.int64).reshape(ny + 1, nx + 1)
    ring = np.concatenate([grid[0], grid[1:, nx], grid[ny, nx - 1::-1], grid[ny - 1::-1, 0]])
    boundary_edges = np.column_stack([ring[:-1], ring[1:]])

    ends = vertices[boundary_edges]  # (n_b, 2 ends, 2 coordinates)

    def on_any(segments):
        hit = np.zeros(len(boundary_edges), dtype=bool)
        for seg in segments:
            hit |= seg.contains(ends).all(axis=1)
        return hit

    tags = np.full(len(boundary_edges), int(EdgeTag.NEUMANN_FREE), dtype=np.int64)
    loaded = on_any(spec.neumann_traction_segments)
    clamped = on_any(spec.dirichlet_segments)
    tags[loaded] = int(EdgeTag.NEUMANN_TRACTION)
    tags[clamped] = int(EdgeTag.DIRICHLET_ZERO)
    for kind, tag, segments in (("clamped", EdgeTag.DIRICHLET_ZERO, spec.dirichlet_segments),
                                ("loaded", EdgeTag.NEUMANN_TRACTION,
                                 spec.neumann_traction_segments)):
        if segments and not np.any(tags == int(tag)):
            raise ValueError(
                f"mesh: no edge of the {nx}x{ny} grid lies on a {kind} boundary segment "
                f"(cells are {spec.width / nx:.4g} x {spec.height / ny:.4g}); segment ends "
                f"must fall on grid vertices, so for the bridge mesh.nx must be a "
                f"multiple of 20")

    mirror = None
    if diagonal == "mirrored":
        mirror = grid[:, ::-1].ravel()
    mesh = TriMesh(vertices, triangles, boundary_edges, tags, mirror)
    areas = triangle_signed_areas(mesh)
    if np.any(areas <= 0):
        raise AssertionError("structured mesh produced a non-CCW triangle")
    return mesh


def triangle_signed_areas(mesh: TriMesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.triangles
    d1 = v[t[:, 1]] - v[t[:, 0]]
    d2 = v[t[:, 2]] - v[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def dirichlet_vertex_set(mesh: TriMesh) -> set:
    """Vertices incident to at least one clamped boundary edge."""
    clamped = mesh.boundary_edges[mesh.boundary_tags == int(EdgeTag.DIRICHLET_ZERO)]
    return set(np.unique(clamped).tolist())
