"""The height of a random tree vertex vs the birthday-problem collision.

Sample a uniform rooted tree on [n] and a uniform vertex in it; add one
to the vertex's distance from the root.  Separately, draw i.i.d.
uniforms on [n] and count the distinct values seen before the first
repeat.  The two integers have the same distribution, exactly.

The script shows the identity twice: as an exact rational statement for
small n (full enumeration on one side, a closed form on the other), and
statistically at n=50 via chi-square comparisons of sampled histograms.
"""

from cayleykit import exact_collision_pmf, exact_height_pmf, law_equality_report

print("=== exact identity for n <= 6 ===")
for n in range(1, 7):
    heights = exact_height_pmf(n)  # entry h is P(height = h) = P(1+height = h+1)
    collisions = exact_collision_pmf(n)  # entry k-1 is P(collision count = k)
    match = "==" if heights == collisions else "!="
    print(f"n={n}: shifted height pmf {match} collision pmf")
    assert heights == collisions
print("e.g. n=3:", ", ".join(str(p) for p in exact_height_pmf(3)), "on both sides")

print("\n=== sampled comparison at n=50 ===")
report = law_equality_report(50, 50_000, master_seed=20250801, method="prufer")
for check in report.checks:
    verdict = "ok" if check.passed else "REJECTED"
    print(
        f"{check.label}: chi2={check.statistic:.1f} "
        f"(df={check.df}, p={check.p_value:.3f}) {verdict}"
    )

mean_h = sum(
    k * c for k, c in enumerate(report.height_plus_one.counts, start=1)
) / report.trials
mean_c = sum(
    k * c for k, c in enumerate(report.collision.counts, start=1)
) / report.trials
print(f"\nsample means: 1+height {mean_h:.3f} vs collision count {mean_c:.3f}")
print("(both approach sqrt(pi*n/2) ~ 8.86 at n=50 as n grows)")
