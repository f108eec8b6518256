"""Exhaustively enumerating perfect codes, and sweeping the classification.

Perfectness is an exact-cover condition, so the searcher enumerates
selections of pairwise-disjoint balls covering the space, always covering
the first uncovered point in enumeration order next; that walk starts at
the (ell, 0, ..., 0) corner, where clipped balls leave the fewest choices.
The sweep runs a grid of (n, ell, e) cells
and checks each against the closed-form counts: min(r+1, 2e+1-r) codes on
two symbols, two codes exactly when ell = 3e+1 on three symbols, none on
four or more.
"""

from simplexcode import (
    SearchProblem,
    SimplexSpace,
    enumerate_perfect_codes,
    format_point,
    verify_theorem_sweep,
)

for n, ell, e in [(1, 7, 1), (2, 7, 2), (2, 8, 2), (3, 7, 1), (4, 6, 1)]:
    problem = SearchProblem(SimplexSpace(n, ell), e, symmetry_reduction=True)
    report = enumerate_perfect_codes(problem)
    print(
        f"n={n} ell={ell:2d} e={e}: {report.solution_count} labeled code(s), "
        f"{report.orbit_count} orbit(s), {report.nodes_explored} search nodes"
    )
    for code in report.solutions:
        print("   ", " ".join(format_point(w) for w in code))

# The two ternary codes are one orbit: they are reflections of each other.
# Nonexistence on 4+ symbols is decided in a handful of nodes because the
# clipped corner balls leave almost no choices.

print("\nsweep n <= 3, ell <= 10, e <= 2:")
sweep = verify_theorem_sweep(3, 10, 2)
disagreements = [c for c in sweep.cells if c.agree is False]
hits = [c for c in sweep.cells if not c.skipped and c.found > 0]
print(f"  {len(sweep.cells)} cells, {len(disagreements)} disagreements")
print("  cells with codes:")
for c in hits:
    print(f"    n={c.n} ell={c.ell:2d} e={c.e}: {c.found} (predicted {c.predicted})")
print("\nTSV rows of the same sweep are stable for golden-file diffing:")
print("\n".join(sweep.to_tsv().splitlines()[:4]))
