"""The permutohedral side: polytopes, chart sections, and the identities
behind the label-forgetting map.

The permutohedron decomposes as a Minkowski sum in two ways: into the
hypersimplex translates carrying the degree-j sections, and into the root
segments carrying the pairwise cross-ratio data.  The chart sections are
polynomials with unit coefficients whose telescoping alternating sum places
every marked section on the subscheme hyperplane.
"""

from toricchains import (
    GF,
    build_sigma_A,
    chart_section,
    delta_j,
    make_point,
    permutohedron,
    sigma_forget,
    verify_a_data_cocycle,
    verify_cd_disjoint,
    verify_divisor_relation,
    verify_minkowski,
    verify_section_hyperplane,
)

print("permutohedron vertex counts (n!):")
for n in (2, 3, 4, 5):
    print(f"  n={n}: {permutohedron(n).num_vertices}")

print("\nhypersimplex translates for n=4 (binomial counts):")
for j in (1, 2, 3):
    print(f"  j={j}: {delta_j(4, j).num_vertices} vertices")

print("\nboth Minkowski decompositions, exact vertex equality:")
for n in (2, 3, 4, 5):
    print(f"  n={n}: {verify_minkowski(n)}")

print("\nchart sections in the coordinates t_i = x_(i+1)/x_i:")
for j in (1, 2):
    print(f"  n=3, j={j}: {chart_section(3, (1, 2, 3), j).serialize()}")

print("\nsymbolic identities:")
print("  section/boundary divisors disjoint (n<=5):",
      all(verify_cd_disjoint(n) for n in range(2, 6)))
print("  divisor valuation relation (n<=6):     ",
      all(verify_divisor_relation(n) for n in range(2, 7)))
print("  telescoping hyperplane identity (n<=4):",
      all(verify_section_hyperplane(n) for n in range(2, 5)))
print("  three-term section cocycle (n<=5):     ",
      all(verify_a_data_cocycle(n) for n in range(3, 6)))

print("\npoint-level forgetting map for n=2: sections u, v push to the")
print("elementary symmetric pair (u+v, uv):")
# one value w_I per ray of the fan, in sigma_subsets order: w_{1} = 5, w_{2} = 7
e = sigma_forget(make_point(build_sigma_A(2), GF(11), [5, 7]))
print("  coefficients", e.c, "twists", e.b)

print("\nand for n=3 with all w_I = 1 the image is binomial:")
print("  coefficients", sigma_forget(make_point(build_sigma_A(3), GF(11), [1] * 6)).c)
