"""How the spectrum metrics rank matrices for pruning and expansion.

Spectral entropy reads the shape of the squared-singular-value energy
distribution: 1.0 means every direction carries equal energy (expand me),
near 0 means one direction dominates (prune my tail). The magnitude means
and the energy-weighted entropy variants are the comparator baselines; the
same spectra show where they disagree with the shape-only view.

CLI equivalent: `rankflex importance spectrum.csv` on a one-row CSV.
"""

import numpy as np

from rankflex.importance import SPECTRUM_METRICS, energy_distribution, spectrum_flag

SPECTRA = {
    "uniform, all equal": np.array([0.5, 0.5, 0.5, 0.5]),
    "one dominant spike": np.array([2.0, 1e-4, 1e-4, 1e-4]),
    "two scales": np.array([1.0, 1.0, 0.01, 0.01]),
    "same shape, 10x larger": np.array([10.0, 10.0, 0.1, 0.1]),
    "single direction": np.array([3.0]),
    "untrained (all zero)": np.zeros(4),
}

header = f"{'spectrum':24s}" + "".join(f"{name:>22s}" for name in SPECTRUM_METRICS)
print(header)
print("-" * len(header))
for label, lam in SPECTRA.items():
    cells = "".join(f"{fn(lam):22.6f}" for fn in SPECTRUM_METRICS.values())
    flag = spectrum_flag(lam)
    print(f"{label:24s}{cells}" + (f"  <- flagged {flag}" if flag else ""))

print()
print("Energy shares s_i = lam_i^2 / sum_j lam_j^2, the distribution the entropy reads:")
for label in ("two scales", "same shape, 10x larger"):
    print(f"  {label:24s}" + "".join(f"{s:10.6f}" for s in energy_distribution(SPECTRA[label])))

print()
print("Things to notice:")
print(" * spectral entropy is scale-free: rows 3 and 4 score identically,")
print("   because their energy shares are the same;")
print("   the nuclear/frobenius means grow 10x with the spectrum.")
print(" * the uniform row maxes out at 1.0, the spike row collapses toward 0.")
print(" * rank-1 and all-zero spectra carry flags instead of meaningful shape.")
