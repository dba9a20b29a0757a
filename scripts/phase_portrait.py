"""Phase portrait of the standard map on the torus, written as SVG.

Usage: python scripts/phase_portrait.py [--k 2.0] [--epsilon 0.0]
       [--orbits 200] [--iters 400] [--out portrait.svg]
"""

import argparse

import numpy as np

import torusdyn as td
from torusdyn import maps
from torusdyn.svg import SvgCanvas


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, default=2.0)
    ap.add_argument("--epsilon", type=float, default=0.0)
    ap.add_argument("--orbits", type=int, default=200)
    ap.add_argument("--iters", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="portrait.svg")
    args = ap.parse_args()

    m = td.make_standard_map(args.k, args.epsilon)
    rng = np.random.default_rng(args.seed)
    Z = rng.uniform(0, 1, size=(args.orbits, 2))
    cloud = np.empty((args.iters + 1, args.orbits, 2))
    cloud[0] = Z

    def record(i, x, y):
        cloud[i, :, 0] = x
        cloud[i, :, 1] = y % 1.0

    # iterate on (x mod 1, y); the integer parts go to an offset never read
    maps.iterate(m.step, Z[:, 0].copy(), Z[:, 1].copy(), args.iters, np.zeros(args.orbits), observe=record)
    cloud = cloud.reshape(-1, 2)

    c = SvgCanvas((0.0, 1.0), (0.0, 1.0), width=700, height=700)
    c.frame()
    c.circles(cloud, r=0.4, color="#204080")
    c.save(args.out)
    print("wrote %s (%d points, k=%g eps=%g)" % (args.out, len(cloud), args.k, args.epsilon))


if __name__ == "__main__":
    main()
