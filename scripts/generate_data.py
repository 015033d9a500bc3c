#!/usr/bin/env python3
"""Write the synthetic five-scene dataset to disk.

Produces one `frame id x y` text file per scene (eth.txt, hotel.txt,
univ.txt, zara1.txt, zara2.txt), deterministic in the built-in seeds, so
a regenerated tree is byte-identical.  Point SGCN_DATA_ROOT or
--data-root at the output directory to train on it.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sgcn.synthetic import SCENE_SEEDS, write_dataset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data", help="output directory (default: ./data)")
    parser.add_argument(
        "--steps", type=int, default=2000,
        help="recorded steps per scene; 2000 gives roughly benchmark-sized scenes",
    )
    args = parser.parse_args(argv)

    paths = write_dataset(args.out, n_steps=args.steps)
    for name in sorted(SCENE_SEEDS):
        path = paths[name]
        n_rows = sum(1 for _ in open(path))
        print(f"{name:<6} {path}  ({n_rows} rows)")
    print(f"done: {len(paths)} scenes under {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
