import itertools

import numpy as np
import pytest

from homotopt.mesh import (GEOM_TOL, BoundarySegment, DomainSpec, EdgeTag, bridge_domain,
                           build_structured_mesh, dirichlet_vertex_set,
                           triangle_signed_areas)


def unit_square(**kwargs):
    return DomainSpec(width=1.0, height=1.0, **kwargs)


def test_smallest_grid():
    m = build_structured_mesh(unit_square(), nx=1, ny=1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert len(m.boundary_edges) == 4


def test_counts_match_brute_force_enumeration(bridge):
    nx, ny = 60, 20
    m = build_structured_mesh(bridge, nx=nx, ny=ny)
    assert m.n_vertices == 61 * 21 == 1281
    assert m.n_triangles == 2400
    # brute force: unique grid coordinates and per-cell triangle pairs
    coords = {(i, j) for i in range(nx + 1) for j in range(ny + 1)}
    assert m.n_vertices == len(coords)
    assert m.n_triangles == 2 * len(list(itertools.product(range(nx), range(ny))))
    xs = np.unique(np.round(m.vertices[:, 0], 12))
    ys = np.unique(np.round(m.vertices[:, 1], 12))
    assert len(xs) == nx + 1 and len(ys) == ny + 1


@pytest.mark.parametrize("nx,ny", [(20, 8), (40, 10), (60, 20)])
def test_traction_tag_covers_exact_segment(bridge, nx, ny):
    m = build_structured_mesh(bridge, nx=nx, ny=ny)
    tagged = [tuple(e) for e, tag in zip(m.boundary_edges, m.boundary_tags)
              if tag == int(EdgeTag.NEUMANN_TRACTION)]
    expected = []
    for e in m.boundary_edges:
        pa, pb = m.vertices[e[0]], m.vertices[e[1]]
        on_bottom = abs(pa[1]) < 1e-12 and abs(pb[1]) < 1e-12
        inside = (1.08 - 1e-12 <= min(pa[0], pb[0])) and (max(pa[0], pb[0]) <= 1.32 + 1e-12)
        if on_bottom and inside:
            expected.append(tuple(e))
    assert sorted(tagged) == sorted(expected)
    assert len(tagged) == nx // 10  # 0.24 of 2.4 total width


def test_dirichlet_vertex_set_coordinates(bridge):
    m = build_structured_mesh(bridge, nx=20, ny=8)  # spacing 0.12 in x
    fixed = dirichlet_vertex_set(m)
    expected = set()
    for v, (x, y) in enumerate(m.vertices):
        if abs(y) < 1e-12 and (x <= 0.12 + 1e-12 or x >= 2.28 - 1e-12):
            expected.add(v)
    assert fixed == expected
    xs = sorted(round(m.vertices[v][0], 12) for v in fixed)
    assert xs == [0.0, 0.12, 2.28, 2.4]


def test_no_dirichlet_segments_gives_empty_set():
    m = build_structured_mesh(unit_square(), nx=3, ny=2)
    assert dirichlet_vertex_set(m) == set()


def test_full_bottom_edge_dirichlet_three_vertices():
    spec = unit_square(dirichlet_segments=(BoundarySegment((0.0, 0.0), (1.0, 0.0)),))
    m = build_structured_mesh(spec, nx=2, ny=1)
    assert len(dirichlet_vertex_set(m)) == 3


@pytest.mark.parametrize("diagonal", ["right", "mirrored"])
def test_area_sum_and_positivity(bridge, diagonal):
    m = build_structured_mesh(bridge, nx=20, ny=8, diagonal=diagonal)
    areas = triangle_signed_areas(m)
    assert np.all(areas > 0)
    assert abs(areas.sum() - 2.4 * 0.8) <= 1e-12 * 2.4 * 0.8


def test_traction_edge_length_sum(bridge):
    m = build_structured_mesh(bridge, nx=60, ny=20)
    total = 0.0
    for e, tag in zip(m.boundary_edges, m.boundary_tags):
        if tag == int(EdgeTag.NEUMANN_TRACTION):
            total += np.linalg.norm(m.vertices[e[1]] - m.vertices[e[0]])
    assert abs(total - 0.24) <= 1e-12


def test_boundary_edges_cover_boundary_once(bridge):
    nx, ny = 20, 8
    m = build_structured_mesh(bridge, nx=nx, ny=ny)
    assert len(m.boundary_edges) == 2 * (nx + ny)
    total = sum(np.linalg.norm(m.vertices[b] - m.vertices[a])
                for a, b in m.boundary_edges)
    assert abs(total - 2 * (2.4 + 0.8)) <= 1e-10
    # no repeated undirected edge
    undirected = {tuple(sorted(e)) for e in map(tuple, m.boundary_edges)}
    assert len(undirected) == len(m.boundary_edges)


def test_each_boundary_edge_in_exactly_one_triangle(bridge):
    m = build_structured_mesh(bridge, nx=20, ny=8)
    tri_edges = {}
    for tri in m.triangles:
        for k in range(3):
            key = tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3]))))
            tri_edges[key] = tri_edges.get(key, 0) + 1
    for edge in m.boundary_edges:
        assert tri_edges[tuple(sorted(map(int, edge)))] == 1


def test_vertex_set_symmetric_under_reflection(bridge):
    m = build_structured_mesh(bridge, nx=20, ny=8)
    pts = {(round(x, 12), round(y, 12)) for x, y in m.vertices}
    mirrored = {(round(2.4 - x, 12), round(y, 12)) for x, y in m.vertices}
    assert pts == mirrored


def test_mirrored_diagonal_triangulation_is_symmetric(bridge):
    m = build_structured_mesh(bridge, nx=20, ny=8, diagonal="mirrored")

    def tri_key(tri, flip):
        pts = []
        for v in tri:
            x, y = m.vertices[v]
            pts.append((round(2.4 - x, 12) if flip else round(x, 12), round(y, 12)))
        return frozenset(pts)

    original = {tri_key(tri, False) for tri in m.triangles}
    reflected = {tri_key(tri, True) for tri in m.triangles}
    assert original == reflected
    # the recorded vertex mirror is that reflection, and it maps the
    # triangles onto themselves
    index = {(round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(m.vertices)}
    expected = [index[round(2.4 - x, 9), round(y, 9)] for x, y in m.vertices]
    assert np.array_equal(m.mirror, expected)
    assert {frozenset(tri) for tri in m.mirror[m.triangles]} == {frozenset(tri) for tri in m.triangles}
    assert build_structured_mesh(bridge, nx=20, ny=8).mirror is None


def test_mirrored_requires_even_nx(bridge):
    with pytest.raises(ValueError):
        build_structured_mesh(bridge, nx=21, ny=8, diagonal="mirrored")


def test_rejects_bad_inputs(bridge):
    with pytest.raises(ValueError):
        build_structured_mesh(bridge, nx=0, ny=4)
    with pytest.raises(ValueError):
        build_structured_mesh(bridge, nx=4, ny=4, diagonal="zigzag")


def test_rejects_segments_off_boundary():
    with pytest.raises(ValueError):
        unit_square(dirichlet_segments=(BoundarySegment((0.2, 0.5), (0.8, 0.5)),))
    with pytest.raises(ValueError):
        unit_square(dirichlet_segments=(BoundarySegment((0.0, 0.0), (1.5, 0.0)),))
    with pytest.raises(ValueError):
        BoundarySegment((0.0, 0.0), (1.0, 1.0))  # not axis-aligned
    with pytest.raises(ValueError):
        BoundarySegment((0.5, 0.0), (0.5, 0.0))  # degenerate


def test_rejects_overlapping_segments():
    with pytest.raises(ValueError):
        unit_square(dirichlet_segments=(
            BoundarySegment((0.0, 0.0), (0.6, 0.0)),
            BoundarySegment((0.5, 0.0), (1.0, 0.0)),
        ))


def test_dirichlet_tag_iff_segment_membership(bridge):
    m = build_structured_mesh(bridge, nx=40, ny=8)
    for (a, b), tag in zip(m.boundary_edges, m.boundary_tags):
        in_seg = all(
            any(s.contains(m.vertices[v]) for s in bridge.dirichlet_segments)
            and any(s.contains(m.vertices[a]) and s.contains(m.vertices[b])
                    for s in bridge.dirichlet_segments)
            for v in (a, b)
        )
        assert (tag == int(EdgeTag.DIRICHLET_ZERO)) == in_seg


# --- reference: the mesh built one cell, edge and vertex at a time ----------------

def loop_on_segment(seg, point):
    """Whether one point lies on ``seg``, by scalar comparisons."""
    x, y = float(point[0]), float(point[1])
    if seg.horizontal:
        lo, hi = sorted((seg.p0[0], seg.p1[0]))
        return abs(y - seg.p0[1]) <= GEOM_TOL and lo - GEOM_TOL <= x <= hi + GEOM_TOL
    lo, hi = sorted((seg.p0[1], seg.p1[1]))
    return abs(x - seg.p0[0]) <= GEOM_TOL and lo - GEOM_TOL <= y <= hi + GEOM_TOL


def loop_mesh(spec, vertices, nx, ny, diagonal):
    """Triangles, boundary edges, edge tags and clamped vertices of the grid."""
    def vid(i, j):
        return j * (nx + 1) + i

    triangles = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if diagonal == "right" or i < nx // 2:
                triangles += [(v00, v10, v11), (v00, v11, v01)]
            else:
                triangles += [(v00, v10, v01), (v10, v11, v01)]
    edges = [(vid(i, 0), vid(i + 1, 0)) for i in range(nx)]
    edges += [(vid(nx, j), vid(nx, j + 1)) for j in range(ny)]
    edges += [(vid(i, ny), vid(i - 1, ny)) for i in range(nx, 0, -1)]
    edges += [(vid(0, j), vid(0, j - 1)) for j in range(ny, 0, -1)]
    tags, fixed = [], set()
    for a, b in edges:
        def on(segments):
            return any(loop_on_segment(s, vertices[a]) and loop_on_segment(s, vertices[b])
                       for s in segments)
        if on(spec.dirichlet_segments):
            tags.append(int(EdgeTag.DIRICHLET_ZERO))
            fixed |= {a, b}
        elif on(spec.neumann_traction_segments):
            tags.append(int(EdgeTag.NEUMANN_TRACTION))
        else:
            tags.append(int(EdgeTag.NEUMANN_FREE))
    return np.array(triangles), np.array(edges), np.array(tags), fixed


@pytest.mark.parametrize("diagonal", ["right", "mirrored"])
@pytest.mark.parametrize("nx, ny", [(20, 8), (40, 12), (60, 20), (80, 28)])
def test_array_built_mesh_equals_the_loops(bridge, nx, ny, diagonal):
    m = build_structured_mesh(bridge, nx, ny, diagonal)
    triangles, edges, tags, fixed = loop_mesh(bridge, m.vertices, nx, ny, diagonal)
    for got, want in ((m.triangles, triangles), (m.boundary_edges, edges),
                      (m.boundary_tags, tags)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    assert dirichlet_vertex_set(m) == fixed
    assert all(type(v) is int for v in fixed)
