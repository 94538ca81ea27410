"""Certified 2D reduction under L1, L2, and Linf.

Dimension 2 is the last dimension where every lattice is standard under
*every* norm, and the reduction is a short loop: translate the longer vector
by its best integer multiple of the shorter one, swap, repeat.  The library
certifies each result by the generalized Gauss criterion ||b1|| <= ||b2|| <=
min(||b2 + b1||, ||b2 - b1||), which under any norm makes the pair's norms the
two minima (Kaib and Schnorr 1996), plus a covolume check that the pair is a
basis of the input lattice, so what prints below is certified, not heuristic.
Note how the minima (and the reduced bases) differ between norms on the same
lattice.
"""

import random

from stdlattice import LatticeBasis, NormKind, brute_minima, min_translate, reduce_2d
from stdlattice.errors import StructuralError


def show(rows, title: str) -> None:
    basis = LatticeBasis(rows)
    print(f"{title}: rows {[list(r) for r in rows]}")
    for kind in (NormKind.L1, NormKind.L2, NormKind.LINF):
        red = reduce_2d(basis, kind)
        label = "norms^2" if kind is NormKind.L2 else "norms"
        print(
            f"  {kind.value:4s} -> b1 {list(red.b1)}, b2 {list(red.b2)}, "
            f"{label} = ({red.norms[0].value}, {red.norms[1].value})"
        )
    print()


def main() -> None:
    show([[2, 1], [1, 2]], "a hexagonal-ish lattice")
    show([[1, 0], [3, 1]], "a shear of the unit grid")
    show([[7, 3], [4, 2]], "a long skinny basis")

    print("min_translate picks the best single translation coefficient:")
    print(f"  (3,1) along (1,0) under L2 -> q = {min_translate((3, 1), (1, 0), NormKind.L2)}")
    print(f"  (5,4) along (2,1) under L1 -> q = {min_translate((5, 4), (2, 1), NormKind.L1)}")
    print()

    rng = random.Random(2)
    print("random spot-check against the brute-force oracle:")
    for _ in range(5):
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
            try:
                basis = LatticeBasis(rows)
                break
            except StructuralError:
                continue
        for kind in (NormKind.L1, NormKind.L2, NormKind.LINF):
            red = reduce_2d(basis, kind)
            sm = brute_minima(basis, kind)
            got = tuple(nv.value for nv in red.norms)
            want = tuple(nv.value for nv in sm.minima)
            assert got == want
            print(f"  {[list(r) for r in rows]} {kind.value:4s}: {got} == oracle {want}")


if __name__ == "__main__":
    main()
