"""Search for the best and worst code pairs and compare against the bounds.

Small dimensions are settled exhaustively up to cube symmetry; larger ones
use seeded alternating best response from subcube, Hamming-ball and random
starts, whose value is a one-sided bound.  The exhaustive results double as a
sharpness check for the analytic bounds.
"""

import math

from nisim import (
    combined_report,
    construction_value,
    exhaustive_extremes,
    format_code,
    hamming_ball,
    collision_prob,
    local_search,
)


def main():
    rho = 0.5

    print("exhaustive extremes at n=4, quarter density:")
    res = exhaustive_extremes(4, 4, 4, rho)
    rep = combined_report(0.25, 0.25, rho)
    print(f"  searched {res.pairs_evaluated} pairs over {res.orbits_enumerated} orbits")
    print(f"  max q = {res.max_q:.9f}   (upper bound {rep.combined_ub:.9f})")
    print(f"  min q = {res.min_q:.9f}   (lower bound {rep.combined_lb:.9f})")
    print("  maximizing pair (canonical form):")
    for line in format_code(res.witness_max[0]).splitlines()[1:]:
        print(f"    {line}")
    print()

    print("the upper bound is met exactly: a subcube pair is optimal here.")
    print()

    print("alternating best response at n=8 (too large to settle exhaustively):")
    best = local_search(8, 64, 64, rho, direction="max", seed=0, iters=10)
    floor = construction_value("symmetric-subcube", 8, 2, rho)
    print(f"  density 1/4 again, found {best.max_q:.9f}")
    print(f"  subcube-pair floor      {floor:.9f}")
    print()

    print("at low correlation a ball pair can beat every subcube pair")
    print("of the same density:")
    n, radius, low_rho = 14, 1, 0.3
    ball = hamming_ball(n, 0, radius)
    q_ball = collision_prob(ball, ball, low_rho)
    # interpolate the subcube family to the ball's (non-dyadic) density
    ex = -math.log2(ball.density)
    q_curve = ((1 + low_rho) / 4) ** ex
    print(f"  n={n}, radius {radius}, density {ball.density:.6f}, rho={low_rho}")
    print(f"  ball pair     {q_ball:.3e}")
    print(f"  subcube curve {q_curve:.3e}")


if __name__ == "__main__":
    main()
