import numpy as np
import pytest

from conftest import (reference_geometry, reference_signed_areas,
                      smoothly_displaced)
from domainuq.errors import DegenerateDeformation
from domainuq.mesh import (build_disc_mesh, displace, geometry,
                           mesh_from_text, mesh_to_text, min_angle_deg,
                           refine, signed_areas)


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
    assert np.array_equal(g.qpoints, qpoints)
    assert np.array_equal(g.grad_products, products)
    assert np.array_equal(signed_areas(moved), reference_signed_areas(moved))
    assert np.array_equal(signed_areas(moved), g.areas)


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
