"""Universality: four computations predict every toric surface.

The invariant series depends on (surface, bundle) only through the four
Chern numbers M^2, M.K, K^2, c2, and its log is linear in them.  A linear
solve on the log series of four generator pairs on two surfaces gives four
universal log series l1..l4, which predict a third surface with no new
localization work.
"""

from nesthilb import (
    builtin_surface,
    chern_numbers,
    predicted_series,
    universal_series_fit,
    z_nest_series,
)

CAP = 3

print("fitting the universal log series on the plane and the quadric ...")
fit = universal_series_fit(CAP)

f1 = builtin_surface("hirzebruch(1)")
for coeffs in ([0, 0, 0, 0], [1, 0, 2, 0]):
    bundle = f1.line_bundle(coeffs)
    cn = chern_numbers(f1, bundle)
    predicted = predicted_series(fit, cn)
    direct = z_nest_series(f1, bundle, CAP)
    ok = predicted.terms == direct.terms
    print(f"blown-up plane, bundle {coeffs}:")
    print(f"  Chern data M^2={cn.M_squared} M.K={cn.M_dot_K} "
          f"K^2={cn.K_squared} c2={cn.c2}")
    print(f"  prediction matches direct computation: {ok}")

print()
print("exp(M^2 l1 + M.K l2 + K^2 l3 + c2 l4) reproduces the series exactly;")
print("the coefficients are exactly the Chern numbers of the pair.")
