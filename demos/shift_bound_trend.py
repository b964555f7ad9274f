"""Sweep the attribute-noise level of synthetic targets against a fixed
source and watch the pairwise divergence bound track the shift.

Writes bound_trend.csv next to this script if run from the repo root.
"""

import csv

from gaa.analysis import proposition1_bound
from gaa.graphs import gen_attribute_shift

SEED = 7
STDS = [round(0.2 * i, 1) for i in range(1, 11)]

source = gen_attribute_shift(cluster_std=0.4, seed=SEED)
print(f"fixed source: {source.n} nodes, {source.dim} features, std=0.4")
print(f"{'target std':>10} {'topo term':>14} {'attr term':>14} {'total':>14}")

rows = []
for std in STDS:
    target = gen_attribute_shift(cluster_std=std, seed=SEED)
    report = proposition1_bound(source, target)
    rows.append((std, report.topo_term, report.attr_term, report.total))
    print(f"{std:>10.1f} {report.topo_term:>14.1f} {report.attr_term:>14.1f} {report.total:>14.1f}")

with open("bound_trend.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["cluster_std", "topo_term", "attr_term", "total"])
    writer.writerows(rows)
print("\nwrote bound_trend.csv; the total trends upward with the shift")
print("(feature noise is redrawn per std, so single steps can wiggle)")
