"""One invariant, two localization routes.

The same number can be computed on the nested Hilbert scheme directly,
or on the product of two Hilbert schemes after cutting down by the top
Chern class of the untwisted fiber class.  Both are finite exact sums
over torus fixed points; they must agree on the nose.
"""

from nesthilb import builtin_surface, multi_bundle_invariant

surface = builtin_surface("p2")
bundle = surface.line_bundle([1, 0, 0])

print("surface: projective plane, bundle O(1)")
print(f"{'(n1,n2)':>8} {'nested':>12} {'product':>12}")
for n1 in range(4):
    for n2 in range(n1 + 1):
        if n1 + n2 > 4:
            continue
        a = multi_bundle_invariant(surface, [bundle], [], n1, n2, route="nested")
        b = multi_bundle_invariant(surface, [bundle], [], n1, n2, route="product")
        flag = "" if a == b else "   <-- disagreement!"
        print(f"{f'({n1},{n2})':>8} {str(a):>12} {str(b):>12}{flag}")

print()
print("The nested route sums over chart-wise nested partition pairs; the")
print("product route sums over all partition pairs, with the non-nested")
print("ones killed by a trivial weight in the top Chern class.")
