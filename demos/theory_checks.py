#
# Run the structural checks on a hand-built three-atom distribution.
#
# The fixture puts a pure-noise atom (eta = 1/2) between two informative
# ones; the population solution is lam = (1, 0), the optimal rule rejects
# the middle atom, and the solution stays put on a wide range of penalty
# weights.  Every inequality below is checked with exact atom sums.
#
import numpy as np

from rejectsvm import (
    CostParams,
    DiscreteDistribution,
    build_linear,
    check_excess_domination,
    check_lemma_a1,
    check_prop21,
    complexity_estimate,
    fit_population,
    gram_psi,
    make_context,
    population_path,
)

if __name__ == "__main__":
    dist = DiscreteDistribution(
        x=np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
        p=np.full(3, 1.0 / 3.0),
        eta=np.array([0.1, 0.5, 0.9]),
    )
    dic = build_linear(2)
    cp = CostParams(d=0.25)
    ctx = make_context(dist, dic, cp)

    psi = gram_psi(dist, dic)
    print("noise-weighted gram matrix:")
    print(np.array2string(psi, precision=4))
    est = complexity_estimate(dist, cp.d)
    print(f"margin exponent alpha={est.alpha:.3f}  A={est.a_const:.3f}")
    print()

    for rep in (
        check_excess_domination(ctx),
        check_lemma_a1(ctx),
        check_prop21(ctx, population_path(ctx, np.linspace(0.05, 0.6, 12))),
    ):
        print(f"{rep.name:28s} {rep.status:5s} slack={rep.slack:.4g}")

    print()
    print("penalty sweep of the exact population fit:")
    base = fit_population(dist, dic, cp, 0.0)
    print(f"  r=0.00  lam={base.lam}")
    for r in (0.1, 0.25, 0.39, 0.45, 0.6):
        m = fit_population(dist, dic, cp, r)
        drift = float(np.abs(m.lam - base.lam).sum())
        print(f"  r={r:.2f}  lam={m.lam}  |move|_1={drift:.3f}")
    print("the solution is flat until the penalty outweighs the risk"
          " gradient.")
