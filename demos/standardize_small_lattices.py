"""Minima-achieving bases in dimension at most 4.

Every lattice of dimension <= 4 is standard under L2, so the L2
certificate of ``check_standard`` always carries a minima-achieving basis,
and ``standardize_low_dim`` returns it: one minima search, then the
certificate's backtrack, whose first basis is the greedy minima witnesses
whenever those form one.  This script runs it on the interesting 4D case
and on a batch of random lattices, re-verifying every output.
"""

import random

from stdlattice import (
    LatticeBasis,
    NormKind,
    is_basis_of,
    measure,
    parity_lattice,
    standardize_low_dim,
    successive_minima,
)
from stdlattice.errors import StructuralError


def show(basis: LatticeBasis, title: str) -> None:
    rows = standardize_low_dim(basis)
    sm = successive_minima(basis, NormKind.L2)
    print(title)
    print(f"  input rows: {[list(r) for r in basis.rows]}")
    print(f"  minima (squared): {[nv.value for nv in sm.minima]}")
    print(f"  achieving basis:  {[list(r) for r in rows]}")
    print(f"  row norms:        {[measure(r, NormKind.L2).value for r in rows]}")
    print(f"  is_basis_of: {is_basis_of(rows, basis)}")
    print()


def random_basis(rng: random.Random, n: int) -> LatticeBasis:
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        try:
            return LatticeBasis(rows)
        except StructuralError:
            continue


def main() -> None:
    print("the 4D parity lattice: the four vectors 2e_i do NOT form a basis,")
    print("but three of them and an all-odd vector of the same length do:\n")
    show(parity_lattice(4), "parity lattice, n = 4")

    rng = random.Random(4)
    for n in (2, 3, 4):
        show(random_basis(rng, n), f"random lattice, n = {n}")

    print("batch check: 100 random lattices per dimension, all verified")
    for n in (1, 2, 3, 4):
        for _ in range(100):
            b = random_basis(rng, n)
            rows = standardize_low_dim(b)
            sm = successive_minima(b, NormKind.L2)
            assert is_basis_of(rows, b)
            assert [measure(r, NormKind.L2).value for r in rows] == [
                nv.value for nv in sm.minima
            ]
        print(f"  n = {n}: 100/100 verified")


if __name__ == "__main__":
    main()
