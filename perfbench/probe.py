"""Child process that sizes the stages a workload will touch.

Usage: python3 probe.py SPECS.json
SPECS.json holds a list of [spec_object, stage] pairs.  Prints one JSON
object: the path of the imported ``cantordiff`` package and, per pair,
the stage's component, gap and endpoint counts and the bracket pair
count len(gaps) * len(endpoints).
"""

from __future__ import annotations

import json
import sys
import warnings


def main(path: str) -> int:
    import cantordiff
    from cantordiff.jsonio import spec_from_obj
    from cantordiff.verify import family_stage

    with open(path) as fh:
        items = json.load(fh)
    sizes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec_obj, stage in items:
            built = family_stage(spec_from_obj(spec_obj), stage)
            sizes.append(
                {
                    "components": len(built.components),
                    "gaps": len(built.gaps),
                    "endpoints": len(built.endpoints),
                    "pairs": len(built.gaps) * len(built.endpoints),
                }
            )
    json.dump({"package": cantordiff.__file__, "sizes": sizes}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
