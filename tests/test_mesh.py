import numpy as np
import pytest

from conftest import (reference_geometry, reference_signed_areas,
                      smoothly_displaced)
from domainuq.errors import DegenerateDeformation
from domainuq.mesh import (Mesh, build_disc_mesh, displace, edge_midpoints,
                           edges, geometry, mesh_to_text, refine,
                           signed_areas)


def mesh_from_text(text):
    """The mesh that `mesh_to_text` wrote."""
    lines = text.splitlines()
    header = lines[0].split()
    assert header[0::2] == ["nodes", "triangles", "level"]
    n, m, level = int(header[1]), int(header[3]), int(header[5])
    nodes = np.array([[float(v) for v in line.split()]
                      for line in lines[1:1 + n]])
    rows = np.array([[int(v) for v in line.split()]
                     for line in lines[1 + n:1 + n + m]], dtype=np.int64)
    boundary = np.array(lines[1 + n + m].split(), dtype=np.int64)
    return Mesh(level=level, nodes=nodes, triangles=rows[:, :3],
                boundary=boundary, patch_id=rows[:, 3])


def min_angle_deg(mesh):
    """Smallest interior angle over all triangles, in degrees."""
    corners = mesh.nodes[mesh.triangles]
    angles = []
    for k in range(3):
        u = corners[:, (k + 1) % 3] - corners[:, k]
        v = corners[:, (k + 2) % 3] - corners[:, k]
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def polygon_area(level):
    """Area of the regular inscribed polygon at the given level."""
    n = 4 * 2 ** level
    return 0.5 * n * np.sin(2 * np.pi / n)


def canonical(mesh):
    """Node-ordering independent view: sorted nodes plus remapped triangles."""
    order = np.lexsort((mesh.nodes[:, 1], mesh.nodes[:, 0]))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    tris = rank[mesh.triangles]
    # rotate each triangle so the smallest index leads (keeps orientation)
    shift = np.argmin(tris, axis=1)
    rotated = np.stack([tris[np.arange(len(tris)), (shift + k) % 3]
                        for k in range(3)], axis=1)
    return (mesh.nodes[order],
            rotated[np.lexsort(rotated.T[::-1])],
            np.sort(rank[mesh.boundary]))


def test_base_mesh():
    m = build_disc_mesh(0)
    assert m.n_triangles == 4
    assert m.n_nodes == 5
    assert set(m.boundary) == {1, 2, 3, 4}
    assert np.allclose(m.nodes[0], [0.0, 0.0])


@pytest.mark.parametrize("level,count", [(0, 4), (1, 16), (2, 64), (3, 256)])
def test_triangle_counts(level, count):
    assert build_disc_mesh(level).n_triangles == count


def test_area_converges_to_pi():
    m = build_disc_mesh(4)
    total = signed_areas(m).sum()
    assert abs(total - np.pi) < 2e-2
    assert np.isclose(total, polygon_area(4), rtol=1e-13)
    # error shrinks by about 4x per level
    errs = [np.pi - signed_areas(build_disc_mesh(l)).sum() for l in (3, 4, 5)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 3.5 < e0 / e1 < 4.5


def test_refine_equals_deeper_build():
    twice = refine(refine(build_disc_mesh(1)))
    direct = build_disc_mesh(3)
    # identical construction path gives exact equality
    assert np.array_equal(twice.nodes, direct.nodes)
    assert np.array_equal(twice.triangles, direct.triangles)
    # and the ordering-independent comparison agrees as well
    for a, b in zip(canonical(twice), canonical(direct)):
        assert np.array_equal(a, b)


def test_refine_keeps_parent_nodes():
    m = build_disc_mesh(2)
    r = refine(m)
    assert np.array_equal(r.nodes[:m.n_nodes], m.nodes)
    assert r.level == m.level + 1
    assert np.array_equal(r.patch_id, np.repeat(m.patch_id, 4))


@pytest.mark.parametrize("level", range(7))
def test_boundary_is_the_union1d_of_parent_and_new_rim(level):
    """`refine` concatenates the parent's boundary and the new rim nodes,
    which gives `np.union1d`'s array of the two, in value and dtype."""
    mesh = build_disc_mesh(level)
    if level == 0:
        expected = np.union1d(mesh.boundary, mesh.boundary)
    else:
        parent = build_disc_mesh(level - 1)
        lone = np.bincount(edges(parent).of_element.reshape(-1)) == 1
        expected = np.union1d(parent.boundary,
                              parent.n_nodes + np.nonzero(lone)[0])
    assert mesh.boundary.dtype == expected.dtype
    assert np.array_equal(mesh.boundary, expected)


@pytest.mark.parametrize("level", range(7))
def test_structural_invariants(level):
    m = build_disc_mesh(level)
    assert m.n_triangles == 4 * 4 ** level
    assert (signed_areas(m) > 0).all()
    # conforming: every edge is shared by at most two triangles, and interior
    # edges by exactly two
    ea = m.triangles
    eb = m.triangles[:, [1, 2, 0]]
    pairs = np.sort(np.stack([ea, eb], axis=-1).reshape(-1, 2), axis=1)
    _, counts = np.unique(pairs, axis=0, return_counts=True)
    assert set(counts).issubset({1, 2})
    # no duplicate node coordinates
    assert len(np.unique(m.nodes, axis=0)) == m.n_nodes
    # rim nodes on the unit circle
    radii = np.linalg.norm(m.nodes[m.boundary], axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-12
    assert min_angle_deg(m) >= 20.0


def test_displace_identity_and_translation(mesh3):
    same = displace(mesh3, np.zeros_like(mesh3.nodes))
    assert np.array_equal(same.nodes, mesh3.nodes)
    shifted = displace(mesh3, np.tile([0.1, 0.0], (mesh3.n_nodes, 1)))
    assert np.allclose(signed_areas(shifted), signed_areas(mesh3), rtol=1e-13)


def test_displace_collapse_raises(mesh3):
    with pytest.raises(DegenerateDeformation):
        displace(mesh3, -mesh3.nodes)


def test_displace_nan_raises(mesh3):
    disp = np.zeros_like(mesh3.nodes)
    disp[7, 1] = np.nan
    with pytest.raises(DegenerateDeformation):
        displace(mesh3, disp)


@pytest.mark.parametrize("level", range(6))
def test_geometry_bit_equal_to_point_gather_and_einsum(level):
    moved = smoothly_displaced(level, seed=level)
    g = geometry(moved)
    areas, grads, qpoints, products = reference_geometry(moved)
    assert np.array_equal(g.areas, areas)
    assert np.array_equal(g.grads, grads)
    # each element's quadrature points are its mapped edge midpoints
    assert np.array_equal(edge_midpoints(moved)[edges(moved).of_element],
                          qpoints)
    # the gradient products the stiffness assembly forms
    gx, gy = g.grad_components
    assert np.array_equal(
        (gx[:, None] * gx[None] + gy[:, None] * gy[None]).transpose(2, 0, 1),
        products)
    assert np.array_equal(signed_areas(moved), reference_signed_areas(moved))
    assert np.array_equal(signed_areas(moved), g.areas)


@pytest.mark.parametrize("level", range(5))
def test_edges_listed_once(level):
    mesh = build_disc_mesh(level)
    e = edges(mesh)
    assert e.ends.dtype == np.int32 and e.of_element.dtype == np.int32
    # Euler's formula for a triangulated disc: V - E + F = 1
    assert e.ends.shape == (2, mesh.n_nodes + mesh.n_triangles - 1)
    ends = e.ends.T
    assert (ends[:, 0] < ends[:, 1]).all()
    assert len(np.unique(ends, axis=0)) == len(ends)
    t = mesh.triangles
    for q, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        assert np.array_equal(np.sort(t[:, [j, k]], axis=1),
                              ends[e.of_element[:, q]])
    # an interior edge is shared by two elements, a rim edge has one
    counts = np.bincount(e.of_element.ravel(), minlength=len(ends))
    assert (counts == 2).sum() + (counts == 1).sum() == len(ends)
    assert (counts == 1).sum() == len(mesh.boundary)


def test_displace_involution(mesh3):
    rng = np.random.default_rng(0)
    d = 0.005 * rng.standard_normal(mesh3.nodes.shape)
    back = displace(displace(mesh3, d), -d)
    assert np.abs(back.nodes - mesh3.nodes).max() <= 1e-14


def test_displace_shape_check(mesh3):
    with pytest.raises(ValueError):
        displace(mesh3, np.zeros((3, 2)))


def test_dump_roundtrip_bit_exact(mesh3):
    rng = np.random.default_rng(5)
    moved = displace(mesh3, 0.01 * rng.standard_normal(mesh3.nodes.shape))
    text = mesh_to_text(moved)
    back = mesh_from_text(text)
    assert np.array_equal(back.nodes, moved.nodes)
    assert np.array_equal(back.triangles, moved.triangles)
    assert np.array_equal(back.boundary, moved.boundary)
    assert np.array_equal(back.patch_id, moved.patch_id)
    assert back.level == moved.level
    assert mesh_to_text(back) == text
