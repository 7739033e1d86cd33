"""Data-driven error and reject bounds versus the exact rates.

Fits on a small high-dimensional sample, then compares the certified upper
bounds against the fitted rule's exact error and reject rates: its margin
y lam'x is Gaussian, N(mu'lam, |lam|^2).  At n=100 the certificates are
loose but honest; watch them tighten with n.
"""

import numpy as np

from rejectsvm import CostParams, bounds, build_linear, fit, gen_two_gaussian
from rejectsvm.dictionary import evaluate
from rejectsvm.sim import _gaussian_risks

if __name__ == "__main__":
    cp = CostParams(d=0.25)
    M = 60
    dic = build_linear(M)

    print("    n   bound_mis   true_mis   bound_rej   true_rej   gamma*")
    for n_per_class in (50, 200, 400):
        x, y, _ = gen_two_gaussian(n_per_class, M, seed=7)
        model = fit(evaluate(dic, x, y), cp, 0.2, dic=dic)
        rep = bounds(model, x, y, delta=0.1, p=1.0)

        # class mean mu = (1, 1, 0, ..., 0) / sqrt(2)
        m = model.lam[:2].sum() / np.sqrt(2.0)
        _, _, true_mis, true_rej = _gaussian_risks(
            m, np.linalg.norm(model.lam), cp, cp.tau)
        print(f"{2 * n_per_class:5d}   {rep.bound_misclass:9.3f}"
              f"   {true_mis:8.4f}   {rep.bound_reject:9.3f}"
              f"   {true_rej:8.4f}   {rep.gamma_star_misclass:6.3f}")

    print()
    print("each bound = within-gamma training rate + penalty * |lam|_1"
          " + n^-p,")
    print("minimized over a grid of ramp widths gamma; it holds with"
          " probability")
    print("at least 1 - delta - n^-p regardless of which width wins.")
