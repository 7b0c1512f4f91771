"""Stress tier: event-level play against the kinematic replay over many
edge-regime draws, outside the tier-1 suite.

    python stress/agreement.py --seed 11 --draws 1000

Params are drawn by ``tests/conftest.edge_params`` with
``random.Random(seed)``, over the ranges of ``conftest.valid_params``; the
annulus clause holds at factor 1 on even draws and at a uniform factor in
the ``annulus`` range on odd ones.
Draw ``i`` replays a 200-game session of seed ``i`` through
``verify_outcome_agreement``.  A draw fails when ``all_agree`` does not hold,
when ``conftest.capture_off_circle`` finds a replay whose detection forces
a capture farther than ``CIRCLE_TOL * (1 + r_cc)`` from the capture circle
or lets the intruder reach deeper than that inside the target,
when the optimizer's decisions at the capture radius (its first grid
maximum by bisection, and a saturated plateau read from the last grid time
and taken to run from that maximum to it) differ from an exhaustive scan of
the scalar objective (``conftest.scan_decisions``), or when the cached
solution's verdict on saturation (``refined_tau is None``) differs from the
scan's (some grid time saturates at pi), or when ``theta_max`` falls below
``guarded_arc`` at the capture radius or saturates at pi without it
(``conftest.arc_bounds_theta_max``), or when the scan finds a grid time
whose objective is not positive, or whose best-aligned start from the
capture circle does not arrive early (``tau - |r_eng - r_cc| <= 0``, see
``strategy._grid_peak``), or, on a saturated draw, when the
plateau audit's verdict differs from the 512-bearing fan's
(``conftest.fan_is_stealthy``) at the chosen plateau time or at the
saturated grid time just before it.
The first failing draw's params and the checks it failed are printed, the
params as ``repr`` floats, and the exit code is 1; otherwise a summary line
is printed.  Needs the ``dev`` extras, since it reads its ranges and its
checks from the tests' conftest.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import (  # noqa: E402
    CIRCLE_TOL, arc_bounds_theta_max, capture_off_circle, edge_params, fan_is_stealthy, scan_decisions,
    scan_objective, search_decisions,
)
from perimdef import capture_circle_radius, capture_circle_solution, guarded_arc, verify_outcome_agreement  # noqa: E402
from perimdef.strategy import _plateau_is_stealthy  # noqa: E402

GAMES_PER_DRAW = 200


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--draws", type=int, required=True)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    games = skipped = 0
    worst = 0.0
    for i in range(args.draws):
        p = edge_params(rng, i)
        report = verify_outcome_agreement(p, GAMES_PER_DRAW, i)
        off_circle = capture_off_circle(p)
        objective = scan_objective(p)
        scan, search = scan_decisions(p, objective), search_decisions(p)
        least_value, least_lead = min(objective[1]), min(objective[2])
        positive = least_value > 0.0 and least_lead > 0.0
        sol = capture_circle_solution(p)
        saturated = sol.refined_tau is None
        bounded = arc_bounds_theta_max(p)
        audited = []
        if saturated:
            # the chosen plateau time and the saturated grid time just before it
            last_two = [scan[0][k] for k in scan[2] if scan[0][k] <= sol.candidate.tau][-2:]
            audited = [(tau, _plateau_is_stealthy(tau, p), fan_is_stealthy(tau, p)) for tau in last_two]
        failed = [check for check, ok in (
            ("verdicts", report.all_agree), ("rim miss", off_circle <= CIRCLE_TOL), ("grid search", search == scan),
            ("saturation", saturated == bool(scan[2])), ("guarded-arc bound", bounded),
            ("objective positivity", positive),
            ("plateau audit", all(audit == fan for _, audit, fan in audited)),
        ) if not ok]
        if failed:
            print(f"FAIL seed {args.seed} draw {i} ({', '.join(failed)}): "
                  f"params ({p.r_t!r}, {p.rho_t!r}, {p.rho_a!r}, {p.nu!r})")
            print(f"  {report}; rim miss at detection {off_circle:.3g} * (1 + r_cc)")
            if search != scan:
                print(f"  grid search read (max {search[1]}, plateau {search[2][:1]}..{search[2][-1:]}), "
                      f"the scan (max {scan[1]}, plateau {scan[2][:1]}..{scan[2][-1:]}); "
                      f"same times: {search[0] == scan[0]}")
            if saturated != bool(scan[2]):
                print(f"  the solution reads {'' if saturated else 'no '}saturation, "
                      f"the scan {len(scan[2])} saturated grid times")
            if not bounded:
                print(f"  theta_max {sol.theta_max!r}, "
                      f"guarded arc at the capture radius {guarded_arc(capture_circle_radius(p), p)!r}")
            if not positive:
                print(f"  least objective on the grid {least_value!r}, "
                      f"least tau - |r_eng - r_cc| {least_lead!r}")
            for tau, audit, fan in audited:
                if audit != fan:
                    print(f"  at tau {tau!r} the plateau audit reads {'' if audit else 'not '}stealthy, "
                          f"the fan {'' if fan else 'not '}stealthy")
            return 1
        games += report.n_compared
        skipped += report.n_boundary_skipped
        worst = max(worst, off_circle)
    print(f"seed {args.seed}: {args.draws} draws agree; {games} games compared, {skipped} skipped; "
          f"worst rim miss at detection {worst:.2g} * (1 + r_cc); {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
