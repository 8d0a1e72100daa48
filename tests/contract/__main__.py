"""``python -m tests.contract --check | --explain | --update`` (see the
package docstring)."""

import argparse
import sys
from pathlib import Path

# runs without PYTHONPATH=src, as bench/run.py does
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from .golden import GOLDEN, dumps, generate, load, verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.contract",
                                     description="hold this tree to tests/contract/golden.json")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="regenerate and compare; exit 1 if a row moved")
    mode.add_argument("--explain", action="store_true", help="as --check, naming every moved field with both values")
    mode.add_argument("--update", action="store_true", help="regenerate and rewrite the golden")
    args = parser.parse_args(argv)
    fresh = generate()
    if args.update:
        GOLDEN.write_text(dumps(fresh), encoding="utf-8")
        print(f"wrote {len(fresh['rows'])} rows to {GOLDEN}")
        return 0
    held, text = verdict(load(GOLDEN), fresh, explain=args.explain)
    print(text)
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
