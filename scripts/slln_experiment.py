#!/usr/bin/env python3
"""Seeded SLLN demonstration across three regimes.

Prints a digest of the dyadic checkpoint diagnostics for:
  * convergent   alpha = 2, p = 1, mean-centered (normalized sums shrink)
  * divergent    alpha = 1, p = 1, c = 0 (infinite mean; no convergence)
  * dependent    alpha = 2, p = 1.2, windowed power-law pairwise dependence
"""

import argparse
import sys

import numpy as np

from pqdslln.marginals import ParetoMarginal
from pqdslln.simulate import MultivariateFgmModel, SlnnRun, run_slln


def digest(label: str, report) -> None:
    med = report.median_abs_m()
    print(f"\n{label} ({report.metadata['dependence']})")
    print("  n:          " + "  ".join(f"{n:>8d}" for n in report.checkpoints))
    print("  med |M_n|:  " + "  ".join(f"{v:>8.4f}" for v in med))
    print("  max |M_n|:  " + "  ".join(f"{v:>8.4f}" for v in report.max_abs_m()))
    print(f"  mean exceedances at n_max: {report.mean_exceedances()[-1]:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=2**15)
    parser.add_argument("--replicates", type=int, default=16)
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args()

    convergent = SlnnRun(
        p=1.0, marginal=ParetoMarginal(2.0), model=None,
        n_max=args.n_max, replicates=args.replicates, seed=args.seed, c=2.0,
    )
    digest("convergent regime", run_slln(convergent))

    divergent = SlnnRun(
        p=1.0, marginal=ParetoMarginal(1.0), model=None,
        n_max=args.n_max, replicates=args.replicates, seed=args.seed, c=0.0,
    )
    digest("divergent regime", run_slln(divergent))

    model = MultivariateFgmModel.from_power_schedule(
        args.n_max, mu=-0.3, nu=-1.2, scale=0.25
    )
    dependent = SlnnRun(
        p=1.2, marginal=ParetoMarginal(2.0), model=model,
        n_max=args.n_max, replicates=args.replicates, seed=args.seed, c=2.0,
    )
    report = run_slln(dependent)
    digest("dependent regime", report)
    window = report.metadata["window"]
    if window is not None:
        print(f"  dependence truncated to |k - j| <= {window}; "
              f"schedule rescaled by {report.metadata['rescale_factor']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
