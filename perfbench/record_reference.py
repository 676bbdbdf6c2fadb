"""Record the outputs the benchmark compares against: reference.json.

f-vectors of circle depth 4 and, for the criterion-1 sampler seeds, the
f-vectors and a digest of the bonding assignments of two_squares depth 5.
A change that keeps fintop's outputs identical leaves this file unchanged;
regenerate it only with a change that means to alter them:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import json

import fintop.tower as T

from workloads import PANEL, REFERENCE, bonding_digest


def main() -> None:
    circle = T.build_tower("circle", 4, k_max=1)
    ref = {"circle": {"f_vectors": [t.complex.f_vector() for t in circle.terms]},
           "two_squares": {}}
    for seed in PANEL:
        tower = T.build_tower("two_squares", 5, k_max=2, seed=seed)
        dump = T.dump_tower(tower)
        ref["two_squares"][str(seed)] = {
            "f_vectors": [t.complex.f_vector() for t in tower.terms],
            "bonding_digest": bonding_digest(
                [lvl["bonding_to_previous"] for lvl in dump["levels"][1:]]),
        }
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
