"""Abstention pays: reject-option fit versus a plain hinge fit.

A scaled-down version of the shipped study (fewer repetitions than the
defaults).  Both arms see identical training data at every penalty weight;
both are scored exactly on the population under rejection cost d, since a
linear rule's margin on this Gaussian pair is itself Gaussian.
"""

import numpy as np

from rejectsvm import ExperimentConfig, run_reject_vs_plain

if __name__ == "__main__":
    config = ExperimentConfig(
        scenario="two_gaussian",
        n_train=100,
        M=200,
        repetitions=10,
        seed=1,
    )
    rows = run_reject_vs_plain(config)
    bayes = rows[0]["bayes_risk"]
    print(f"optimal risk (exact): {bayes:.4f}")
    print()
    print("median excess risk over repetitions, by penalty weight:")
    print("       r     reject      plain    reject-rate")
    for r in config.r_grid:
        sel = [row for row in rows if row["r"] == r]
        rej = np.median([row["excess_ell"] for row in sel
                         if row["arm"] == "reject"])
        pla = np.median([row["excess_ell"] for row in sel
                         if row["arm"] == "plain"])
        rate = np.median([row["reject"] for row in sel
                          if row["arm"] == "reject"])
        print(f"{r:8.4f}   {rej:8.4f}   {pla:8.4f}   {rate:8.3f}")

    best = {}
    for row in rows:
        key = (row["repetition"], row["arm"])
        best[key] = min(best.get(key, np.inf), row["excess_ell"])
    wins = sum(best[(i, "reject")] < best[(i, "plain")]
               for i in range(config.repetitions))
    print()
    print(f"best-over-grid comparison: reject arm wins "
          f"{wins}/{config.repetitions} repetitions")
    print("with n=100 samples in M=200 dimensions, hedging on ambiguous")
    print("points beats committing everywhere.")
