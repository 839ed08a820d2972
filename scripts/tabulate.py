#!/usr/bin/env python3
"""Dump phi tables (theta, phi1, phi0, residuals) for every row that
`verify` checks, one CSV per model.

Usage: python scripts/tabulate.py [--out-dir tables] [--points 25]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from harmonicspaces.cli import main as cli_main
from harmonicspaces.spaces import domain_end, parse_model_id
from harmonicspaces.verify import TABLE_IDS


def run(out_dir: Path, points: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for mid in TABLE_IDS:
        model = parse_model_id(mid)
        end = min(domain_end(model), 3.0)
        r_min, r_max = 0.1 * end, 0.9 * end
        r_ref = 0.5 * end
        path = out_dir / f"phi_{mid}.csv"
        code = cli_main(
            [
                "phi-table", mid,
                f"{r_min:.6f}", f"{r_max:.6f}", str(points), f"{r_ref:.6f}",
                "--out", str(path),
            ]
        )
        if code != 0:
            raise SystemExit(f"tabulation for {mid} failed with exit code {code}")
        print(f"wrote {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("tables"))
    parser.add_argument("--points", type=int, default=25)
    args = parser.parse_args()
    run(args.out_dir, args.points)
