"""The same numbers from pure algebra: a vertex-operator trace.

A lattice Heisenberg algebra acting on a truncated Fock space carries
half-vertex operators Gamma+-; the graded trace of their composition
reproduces the geometric pairing of top Chern classes coefficient by
coefficient, with no geometry in sight.
"""

from nesthilb import Lattice, builtin_surface, multi_bundle_invariant, w_trace

CAP = 2

surface = builtin_surface("p2")
b1 = surface.line_bundle([1, 0, 0])
b2 = surface.line_bundle([0, 2, 0])

# the lattice and its vectors come from the fan's intersection form
lattice = Lattice(surface)
box = w_trace(lattice, lattice.vector(b1), lattice.vector(b2), CAP)

print("plane lattice, twists by degree-1 and degree-2 classes")
print(f"{'(n1,n2)':>8} {'Fock trace':>12} {'localization':>14}")
for n1 in range(CAP + 1):
    for n2 in range(CAP + 1):
        algebra = box.get((n1, n2), 0)
        geometry = multi_bundle_invariant(
            surface, [], [], n1, n2, route="product", tops=((b1, False), (b2, True))
        )
        mark = "" if algebra == geometry else "  <-- disagreement!"
        print(f"{f'({n1},{n2})':>8} {str(algebra):>12} {str(geometry):>14}{mark}")

print()
print("The trace also factors as a closed three-family infinite product")
print("whose exponents are intersection numbers; see the fock verify suite.")
