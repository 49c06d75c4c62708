"""Shared dofs glue across cells whatever the local slot of the shared
polytope."""

import numpy as np
import pytest

from mmfem.dofmap import build_dofmap
from mmfem.mesh import build
from mmfem.nedelec import SpaceDescriptor, eval_vector_shapes
from mmfem.simplex import bezier_eval

# two tets on either side of the face (1, 2, 3): local face slot 3 of the
# first cell, slot 0 of the second
PAIR = build([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.2, 1.0, 0.1], [0.1, 0.3, 1.0],
              [0.9, 0.8, 0.7]], [[0, 1, 2, 3], [1, 2, 3, 4]])
SPACES = ([("h1", p) for p in range(1, 6)] + [("nedelec1", p) for p in range(5)]
          + [("nedelec2", p) for p in range(1, 5)])


def _face_points(rng):
    """Points inside the shared face and on its edges."""
    xa, xb, xc = PAIR.vertices[1:4]
    pts = [rng.dirichlet(np.ones(3), size=12) @ np.stack([xa, xb, xc])]
    s = np.linspace(0.05, 0.95, 4)[:, None]
    pts += [lo + s * (hi - lo) for lo, hi in ((xa, xb), (xa, xc), (xb, xc))]
    return np.vstack(pts)


@pytest.mark.parametrize("family,p", SPACES)
def test_dofs_glue_across_a_face_at_different_slots(family, p):
    assert PAIR.cell_faces[0, 3] == PAIR.cell_faces[1, 0]
    rng = np.random.default_rng(p)
    space = SpaceDescriptor(family, p, 3)
    dm = build_dofmap(PAIR, space)
    x = rng.uniform(-1.0, 1.0, dm.n_dofs)
    pts = _face_points(rng)
    xa, xb, xc = PAIR.vertices[1:4]
    traces = []
    for c in range(2):
        ref = (pts - PAIR.origins[c]) @ PAIR.inv_ts[c]      # J^{-1} (x - x_1)
        coeffs = x[dm.cell_dofs[c]]
        if family == "h1":
            traces.append(bezier_eval(p, 3, ref).values @ coeffs)
        else:
            # covariant Piola map J^{-T} v, then the two tangential components
            phys = np.einsum("ed,qnd->qne", PAIR.inv_ts[c],
                             eval_vector_shapes(space, ref).values)
            f = np.einsum("qne,n->qe", phys, coeffs)
            traces.append(np.stack([f @ (xb - xa), f @ (xc - xa)], axis=1))
    np.testing.assert_allclose(traces[0], traces[1], rtol=0, atol=1e-11)
