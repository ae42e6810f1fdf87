"""Both contracting homotopies against literal outputs.

`golden_homotopies.jsonl` holds one line per case below: the eta that the
homotopy returns on a seeded boundary cycle, as `formal_sum_to_json`,
followed by the repr and the JSON of each of its generators in insertion
order.  The test requires every line byte for byte, so a change of
storage or of face construction that moved any generator, coefficient,
rendering or sampler draw shows here.  Regenerate the file only for a
change meant to alter these outputs:

    PYTHONPATH=src python tests/test_golden_homotopies.py
"""

import json
import random
from pathlib import Path

import pytest

from skewplus.chains import FormalSum, boundary, formal_sum_to_json
from skewplus.fields import Field
from skewplus.pfaffian import random_skew_plus
from skewplus.symplectic import SymplecticSpace
from skewplus.unimod import contract_cycle_seq, contract_cycle_skew, random_nondeg_seq

DATA = Path(__file__).with_name("golden_homotopies.jsonl")

# (field flag, complex, degree of the cycle, chain terms, seed); the skew
# cycles of seeds 3 and 22 have a generator that needs a surgery round
CASES = [
    ("q", "seq", 1, 2, 0), ("q", "seq", 2, 3, 1), ("q", "seq", 3, 2, 2),
    ("q", "skew", 2, 3, 3), ("q", "skew", 3, 3, 4), ("q", "skew", 3, 3, 3),
    ("fp:1000003", "seq", 2, 2, 6), ("fp:1000003", "skew", 2, 2, 7),
    ("fp:1000003", "skew", 3, 2, 8),
    ("fpt:3", "seq", 2, 2, 9), ("fpt:3", "skew", 2, 2, 10), ("fpt:3", "skew", 3, 3, 22),
]


def case_output(k: int) -> str:
    """The JSON line of case k: a boundary cycle of the chain of `terms`
    random generators one size up, and the eta its homotopy returns."""
    flag, kind, q, terms, seed = CASES[k]
    field = Field.from_flag(flag)
    rng = random.Random(f"golden:{flag}:{seed}")
    space = SymplecticSpace(field, 2)
    if kind == "seq":
        gens = [random_nondeg_seq(space, q + 1, rng) for _ in range(terms)]
    else:
        gens = [random_skew_plus(field, q + 1, rng) for _ in range(terms)]
    chain = FormalSum.collect((g, rng.choice((-3, -2, -1, 1, 2, 3))) for g in gens)
    xi = boundary(chain)
    eta = contract_cycle_seq(xi, rng) if kind == "seq" else contract_cycle_skew(xi, rng)
    assert boundary(eta) == xi
    return json.dumps({"case": CASES[k], "eta": formal_sum_to_json(eta),
                       "generators": [[repr(g), g.to_json()] for g in eta.generators()]})


@pytest.mark.parametrize("k", range(len(CASES)))
def test_homotopy_output_is_byte_identical(k):
    assert case_output(k) == DATA.read_text().splitlines()[k]


if __name__ == "__main__":
    DATA.write_text("".join(case_output(k) + "\n" for k in range(len(CASES))))
