"""Diagnostics for the builtin grids' stress behaviour.

For each grid this prints the base loading profile, the effect of removing
the cross tie, and the two stress scenarios that matter for evaluation:
losing the top-loaded line with the tie in service (must create a
recoverable overload) and with the tie already removed (must stay clear of
overload).  Run after any change to the grid constants.
"""

import numpy as np

from gridshield import environment as env
from gridshield.grids import builtin_grid


def solve(spec, status):
    setpoints = env.base_dispatch(spec)
    demands = np.array([d.base_demand for d in spec.loads])
    return env.solve_state(spec, setpoints, demands, status)


def relief_options(spec, status, threshold=0.95):
    """Single-line disconnections that bring max rho at or below threshold."""
    out = []
    for ell in np.flatnonzero(status):
        trial = status.copy()
        trial[ell] = False
        sol = solve(spec, trial)
        if sol.feasible and sol.rho.max() <= threshold:
            out.append((int(ell), float(sol.rho.max())))
    return sorted(out, key=lambda x: x[1])


def report(name):
    spec = builtin_grid(name)
    n = spec.n_lines
    all_in = np.ones(n, dtype=bool)
    base = solve(spec, all_in)
    order = np.argsort(-base.rho)
    print(f"=== {name}: {spec.n_buses} buses, {n} lines ===")
    print(f"base max rho {base.rho.max():.3f}")
    print("top loads:", [(int(i), round(float(base.rho[i]), 3)) for i in order[:6]])

    tie = 4  # cross-tie line id in the shared core
    no_tie = all_in.copy()
    no_tie[tie] = False
    relaxed = solve(spec, no_tie)
    print(f"tie-out max rho {relaxed.rho.max():.3f}")

    # Stress with tie in service: lose the top line.
    top = int(order[0])
    st = all_in.copy()
    st[top] = False
    hit = solve(spec, st)
    print(f"tie-in, lose line {top}: feasible={hit.feasible} max rho {hit.rho.max():.3f} "
          f"(line {int(np.argmax(hit.rho))})")
    relief = relief_options(spec, st)
    print(f"  relief disconnects <=0.95: {relief[:4]}")

    # Stress with tie already out: lose the (new) top line.
    rho2 = np.where(no_tie, relaxed.rho, -1)
    top2 = int(np.argmax(rho2))
    st2 = no_tie.copy()
    st2[top2] = False
    hit2 = solve(spec, st2)
    print(f"tie-out, lose line {top2}: feasible={hit2.feasible} max rho {hit2.rho.max():.3f}")

    # Effect profile of every single disconnect from base (admissible band).
    effects = []
    for ell in range(n):
        trial = all_in.copy()
        trial[ell] = False
        sol = solve(spec, trial)
        effects.append((ell, sol.feasible, round(float(sol.rho.max()), 3)))
    islanding = [e[0] for e in effects if not e[1]]
    worsening = [e for e in effects if e[1] and e[2] > base.rho.max() + 0.05]
    improving = [e for e in effects if e[1] and e[2] < base.rho.max() - 0.05]
    print(f"  single-disconnect effects: {len(islanding)} island, "
          f"{len(worsening)} worsen >0.05, {len(improving)} improve >0.05")
    print(f"  worst admissible degradations: "
          f"{sorted([e for e in effects if e[1]], key=lambda e: -e[2])[:4]}")
    print()


def main():
    for name in ("toy5", "train14", "large36"):
        report(name)


if __name__ == "__main__":
    main()
