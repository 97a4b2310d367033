"""Regenerate the archived sweep outputs under tests/golden/.

Run from the repository root after any intentional physics change, then review
the diff before committing. The test suite pins against these files.

    python scripts/make_goldens.py [--out DIR]

--out writes the files into DIR instead (created if missing), which leaves
the committed goldens alone: a fresh set can be compared against them.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from oemsim import PRESET_NAMES, preset, run_sweep, write_csv
from oemsim.sweep import _write_text

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_DIR, metavar="DIR",
                        help="output directory (default: tests/golden)")
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    for name in PRESET_NAMES:
        result = run_sweep(preset(name))
        write_csv(result, out / f"{name}.csv")
        print(f"{name}: {result.stable_count()}/{len(result.x)} stable, "
              f"{result.error_count()} errors")

    spec = preset("fig5")
    couplings = [2.0 * math.pi * f * 1e5 for f in (0.5, 1.0, 1.5)]
    column = spec.pairs.index("oc_sba")
    peaks = []
    for g in couplings:
        result = run_sweep(dataclasses.replace(spec, base=spec.base.replace(g=g)))
        peaks.append(float(result.e_n[result.stable, column].max()))
    payload = {"couplings_rad_s": couplings, "peak_en_oc_sba": peaks}
    _write_text(out / "fig5_peaks.json", [json.dumps(payload, indent=2), "\n"])
    print("fig5 peaks:", peaks)
    return 0


if __name__ == "__main__":
    sys.exit(main())
