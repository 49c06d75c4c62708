"""Cost of the basis evaluators per point and per base function.

Times ``bezier_eval`` (H1) and ``eval_vector_shapes`` (N-I, N-II) at
p = 1..8 on the reference triangle and tetrahedron, over one batch of
random reference points, after one warm-up call (which fills the cached
tables), best of ``--repeat`` calls.  It prints one table: per dimension
and degree, each space's number of functions nb, its microseconds per
point and its microseconds per point and function (us/point / nb).  The
paper's complexity claim is that the last column stays flat in p.

    PYTHONPATH=src python scripts/basis_cost.py [--points 1000] [--repeat 3]

The 3D N-I p = 8 call holds a few arrays of points x terms x 3 doubles
(about 23 MB each at 1,000 points).
"""

import argparse
import time

import numpy as np

from mmfem.nedelec import SpaceDescriptor, eval_vector_shapes
from mmfem.simplex import bezier_eval

SPACES = (("H1", "h1"), ("N-I", "nedelec1"), ("N-II", "nedelec2"))


def _evaluator(family, p, dim):
    """The evaluator call of one space at a batch of points."""
    if family == "h1":
        return lambda x: bezier_eval(p, dim, x)
    space = SpaceDescriptor(family, p, dim)
    return lambda x: eval_vector_shapes(space, x)


def _cost(call, x, repeat):
    """(nb, best seconds of ``repeat`` calls) after one warm-up call."""
    out = call(x)
    nb = out.values.shape[1]
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        call(x)
        best = min(best, time.perf_counter() - t0)
    return nb, best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=1000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    head = "".join(f" | {name:>5} nb  us/pt  us/pt/fn" for name, _ in SPACES)
    print(f"dim  p{head}")
    for dim in (2, 3):
        x = rng.dirichlet(np.ones(dim + 1), size=args.points)[:, :dim]
        for p in range(1, 9):
            row = f"{dim:>3} {p:>2}"
            for _, family in SPACES:
                nb, sec = _cost(_evaluator(family, p, dim), x, args.repeat)
                us = 1e6 * sec / args.points
                row += f" | {nb:>8} {us:>6.1f} {us / nb:>9.3f}"
            print(row)


if __name__ == "__main__":
    main()
