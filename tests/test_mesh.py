import json
import math

import numpy as np
import pytest

from mmfem.benchmarks import BENDING_ZGRID
from mmfem.errors import BadIndex, DegenerateCell, InvalidParam, ParseError
from mmfem.mesh import build, generate_box, generate_disk, io_read, io_write


def test_single_reference_triangle():
    mesh = build([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [[0, 1, 2]])
    assert abs(abs(mesh.dets[0]) - 1.0) < 1e-14
    assert mesh.n_edges == 3
    assert len(mesh.boundary_facets) == 3


def test_unit_tetrahedron():
    mesh = build([[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 1, 2, 3]])
    assert abs(abs(mesh.dets[0]) - 1.0) < 1e-14
    assert mesh.n_faces == 4 and mesh.n_edges == 6


def test_two_triangles_shared_edge():
    mesh = build([[0, 0], [1, 0], [0, 1], [1, 1]], [[0, 1, 2], [1, 3, 2]])
    assert mesh.n_edges == 5
    assert len(mesh.boundary_facets) == 4
    counts = np.bincount(mesh.cell_edges.ravel(), minlength=5)
    assert sorted(counts) == [1, 1, 1, 1, 2]


def test_edge_ids_invert_the_edge_list():
    mesh = generate_box(((0, 1), (0, 1), (0, 1)), 2)
    np.testing.assert_array_equal(mesh.edge_ids(mesh.edges[:, 0], mesh.edges[:, 1]),
                                  np.arange(mesh.n_edges))
    # the face's edges, stacked as the Dirichlet embedding asks for them
    fv = mesh.faces[:3]
    ids = mesh.edge_ids(fv[:, [0, 0, 1]], fv[:, [1, 2, 2]])
    np.testing.assert_array_equal(mesh.edges[ids][..., 0], fv[:, [0, 0, 1]])
    np.testing.assert_array_equal(mesh.edges[ids][..., 1], fv[:, [1, 2, 2]])


def test_map_points_one_cell_and_chunk():
    mesh = generate_disk(1.0, n_rings=2)
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.3]])
    per_cell = np.array([mesh.map_points(c, ref) for c in range(mesh.n_cells)])
    np.testing.assert_allclose(per_cell[:, 0], mesh.vertices[mesh.cells[:, 0]])
    np.testing.assert_allclose(mesh.map_points(slice(None), ref), per_cell, atol=1e-15)
    np.testing.assert_allclose(mesh.map_points(np.array([3, 1]), ref),
                               per_cell[[3, 1]], atol=1e-15)


def test_cells_stored_sorted():
    mesh = build([[0, 0], [1, 0], [0, 1]], [[2, 0, 1]])
    np.testing.assert_array_equal(mesh.cells[0], [0, 1, 2])


def test_degenerate_cell_rejected():
    with pytest.raises(DegenerateCell):
        build([[0, 0], [1, 0], [2, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("n_rings", [0, -2, 2.5])
def test_disk_without_rings_rejected(n_rings):
    with pytest.raises(InvalidParam, match=f"n_rings .* got {n_rings}"):
        generate_disk(10.0, n_rings=n_rings)


@pytest.mark.parametrize("bounds", [((0, 1),), ((0, 1),) * 4])
def test_box_needs_two_or_three_axes(bounds):
    with pytest.raises(InvalidParam, match="2 or 3 axes"):
        generate_box(bounds, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_rejected(bad):
    # a NaN coordinate would give NaN determinants that no tolerance test
    # rejects
    with pytest.raises(InvalidParam, match="vertex 2 has non-finite"):
        build([[0, 0], [1, 0], [0, bad]], [[0, 1, 2]])


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0])
def test_disk_radius_rejected(radius):
    with pytest.raises(InvalidParam, match=f"radius .* got {radius}"):
        generate_disk(radius, n_rings=2)


@pytest.mark.parametrize("bounds,n", [(((0, np.nan), (0, 1)), 2),
                                      (((0, 1), (0, 1)), (2, [0.0, np.nan, 1.0])),
                                      (((0, 1), (0, 1)), (2, [np.nan, 0.5, 1.0]))])
def test_box_rejects_nan(bounds, n):
    with pytest.raises(InvalidParam):
        generate_box(bounds, n)


def test_bad_vertex_index():
    with pytest.raises(BadIndex):
        build([[0, 0], [1, 0], [0, 1]], [[0, 1, 7]])


class TestBox:
    def test_cube_counts(self):
        mesh = generate_box(((-1, 1), (-1, 1), (-1, 1)), 2)
        assert mesh.n_cells == 48
        mesh = generate_box(((-1, 1), (-1, 1), (-1, 1)), 4)
        assert mesh.n_cells == 384

    def test_volumes(self):
        mesh = generate_box(((-1, 1), (-1, 1), (-1, 1)), 3)
        assert abs(mesh.volume() - 8.0) < 1e-10
        mesh = generate_box(((0, 2), (0, 1)), (4, 2))
        assert abs(mesh.volume() - 2.0) < 1e-12
        assert mesh.n_cells == 16

    def test_side_tags(self):
        for bounds, n in [(((-1, 1), (-1, 1), (-1, 1)), 2),
                          (((0, 2), (0, 1)), (4, 2)),
                          (((0, 1), (-1, 1)), (3, [-1.0, -0.3, 0.2, 1.0])),
                          (((0, 1), (0, 2), (0, 3)), (2, 3, 1)),
                          (((-10, 10), (-10, 10), (-0.5, 0.5)),     # the plate
                           (3, 3, BENDING_ZGRID))]:
            self._check_box(generate_box(bounds, n), bounds)

    @staticmethod
    def _check_box(mesh, bounds):
        dim = len(bounds)
        axes = [np.unique(mesh.vertices[:, ax]) for ax in range(dim)]
        counts = [len(x) - 1 for x in axes]
        # every cell spans one grid box, and each box holds dim! cells
        grid = np.stack([np.searchsorted(x, mesh.vertices[:, ax])
                         for ax, x in enumerate(axes)], axis=1)[mesh.cells]
        lo = grid.min(axis=1)
        assert np.all(grid.max(axis=1) - lo == 1)
        per_box = np.bincount(np.ravel_multi_index(lo.T, counts),
                              minlength=math.prod(counts))
        assert np.all(per_box == math.factorial(dim))
        # a side's facets lie in its plane, (dim-1)! per box of its grid
        for ax in range(dim):
            others = math.prod(counts[:ax] + counts[ax + 1:])
            for side, val in zip("-+", bounds[ax]):
                facets = mesh.tagged_facets("xyz"[ax] + side)
                assert len(facets) == math.factorial(dim - 1) * others
                assert np.all(mesh.vertices[mesh.facet_vertices(facets), ax] == val)
        # the tags partition the boundary
        tagged = np.sort(np.concatenate(list(mesh.boundary_tags.values())))
        np.testing.assert_array_equal(tagged, mesh.boundary_facets)

    def test_axis_breakpoints(self):
        mesh = generate_box(((0, 1), (0, 1), (0, 1)), (1, 1, [0.0, 0.7, 1.0]))
        assert mesh.n_cells == 12
        assert abs(mesh.volume() - 1.0) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(InvalidParam):
            generate_box(((1, 0), (0, 1)), 2)
        with pytest.raises(InvalidParam):
            generate_box(((0, 1), (0, 1)), 0)
        with pytest.raises(InvalidParam):
            generate_box(((0, 1), (0, 1)), (2, [0.0, 0.5, 0.9]))
        # a non-integral count is rejected, not truncated
        with pytest.raises(InvalidParam, match="got 2.5"):
            generate_box(((0, 1), (0, 1)), 2.5)
        with pytest.raises(InvalidParam, match="got 1.5"):
            generate_box(((0, 1), (0, 1), (0, 1)), (2, 1.5, [0.0, 1.0]))


class TestDisk:
    def test_boundary_on_circle(self):
        mesh = generate_disk(10.0, n_rings=3)
        for f in mesh.tagged_facets("boundary"):
            for v in mesh.facet_vertices(f):
                assert abs(np.linalg.norm(mesh.vertices[v]) - 10.0) < 1e-12

    def test_cell_count(self):
        for n in (1, 2, 4):
            mesh = generate_disk(1.0, n_rings=n)
            assert mesh.n_cells == 6 * n * n

    def test_area_converges(self):
        # polygonal area deficit shrinks under refinement
        areas = [generate_disk(1.0, n_rings=n).volume() for n in (4, 8, 16)]
        errs = [abs(a - np.pi) for a in areas]
        assert errs[1] < errs[0] / 3 and errs[2] < errs[1] / 3

    def test_target_h(self):
        mesh = generate_disk(10.0, target_h=2.5)
        assert mesh.n_cells == 6 * 4 * 4

    def test_invalid(self):
        with pytest.raises(InvalidParam):
            generate_disk(-1.0, 1.0)
        with pytest.raises(InvalidParam):
            generate_disk(1.0)


class TestOrientation:
    def test_shared_edges_ascend(self):
        mesh = generate_box(((-1, 1), (-1, 1), (-1, 1)), 2)
        # every stored edge and face is ascending; every cell row too
        assert np.all(np.diff(mesh.edges, axis=1) > 0)
        assert np.all(np.diff(mesh.faces, axis=1) > 0)
        assert np.all(np.diff(mesh.cells, axis=1) > 0)

    def test_volume_additivity(self):
        mesh = generate_box(((0, 1), (0, 2), (0, 3)), (2, 3, 2))
        assert abs(mesh.volume() - 6.0) < 1e-10


class TestIO:
    def test_round_trip(self, tmp_path):
        mesh = generate_box(((-1, 1), (-1, 1), (-1, 1)), 2)
        path = tmp_path / "cube.json"
        io_write(mesh, path)
        back = io_read(path)
        np.testing.assert_array_equal(back.cells, mesh.cells)
        np.testing.assert_allclose(back.vertices, mesh.vertices)
        assert set(back.boundary_tags) == set(mesh.boundary_tags)
        for tag in mesh.boundary_tags:
            got = {tuple(back.facet_vertices(f)) for f in back.tagged_facets(tag)}
            want = {tuple(mesh.facet_vertices(f)) for f in mesh.tagged_facets(tag)}
            assert got == want

    def test_disk_round_trip_counts(self, tmp_path):
        mesh = generate_disk(10.0, n_rings=2)
        path = tmp_path / "disk.json"
        io_write(mesh, path)
        back = io_read(path)
        assert back.n_cells == mesh.n_cells and back.n_edges == mesh.n_edges

    def test_missing_key(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2, "vertices": [[0,0],[1,0],[0,1]]}')
        with pytest.raises(ParseError, match="cells"):
            io_read(path)

    def test_facet_index_tag_entries_rejected(self, tmp_path):
        # tag entries are facet vertex lists; bare integers (facet
        # indices) are no facets and must not pass unvalidated
        path = tmp_path / "indices.json"
        path.write_text('{"dim": 2, "vertices": [[0,0],[1,0],[0,1]], '
                        '"cells": [[0,1,2]], "boundary_tags": {"b": [0, 99]}}')
        with pytest.raises(ParseError, match="tag 'b'"):
            io_read(path)
        with pytest.raises(BadIndex, match="tag 'b'"):
            build([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], tags={"b": [0]})

    @pytest.mark.parametrize("key,value,message", [
        ("cells", [[0, 1, "a"]], "'cells' must be a rectangular array"),
        ("cells", [[0, 1, 2], [0, 1]], "'cells' must be a rectangular array"),
        ("cells", [[0, 1, 2.7]], "'cells': 2.7 is not an integer"),
        ("vertices", [[0, 0], [1, 0], [0]], "'vertices' must be a rectangular array"),
        ("boundary_tags", {"boundary": 5}, "'boundary_tags' 'boundary' must be a list"),
        ("boundary_tags", {"b": [[0, 1.5]]}, "'boundary_tags' 'b': 1.5 is not an integer"),
    ])
    def test_malformed_field_names_file_and_field(self, tmp_path, key, value, message):
        # a bad entry is a ParseError naming the file and the field, never a
        # bare ValueError/TypeError, and a non-integral id is not truncated
        data = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, 1, 2]],
                key: value}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as info:
            io_read(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    def test_unreadable_file(self, tmp_path):
        # a directory, or bytes that are not UTF-8, is a ParseError naming
        # the path, not an OSError or UnicodeDecodeError
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"dim": 2, "name": "\xe9"}')
        for path in (tmp_path, latin1):
            with pytest.raises(ParseError, match="cannot be read") as info:
                io_read(path)
            assert str(info.value).startswith(f"{path}: ")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2,,}')
        with pytest.raises(ParseError, match="line"):
            io_read(path)
