"""Witt extensions and transvections against literal outputs.

`golden_witt.jsonl` holds one line per case below: the seeded inputs
(a non-degenerate unimodular v of the given rank, its image w under a
random group element, and a transvection's vector and coefficient) and
the outputs of `witt_extend(space, v, w)` and of `transvection`, each
matrix as `Matrix.to_json`.  The file was generated at commit a95069b,
before `symplectic` moved onto the shared ring paths; the test rebuilds
every output from the stored inputs and requires it literal for
literal, so a change that moved any entry of g or of a transvection
shows here.  Regenerate the file only for a change meant to alter these
outputs:

    PYTHONPATH=src python tests/test_golden_witt.py
"""

import json
import random
from pathlib import Path

import pytest

from skewplus.fields import Field, parse_scalar
from skewplus.symplectic import SymplecticSpace, random_sp, transvection, witt_extend
from skewplus.unimod import random_nondeg_seq

DATA = Path(__file__).with_name("golden_witt.jsonl")

# (field flag, 2n, rank): every rank 0..2n of every 2n in {2, 4, 6, 8}
CASES = [(flag, two_n, r) for flag in ("q", "fp:1000003", "fpt:3")
         for two_n in (2, 4, 6, 8) for r in range(two_n + 1)]


def _literals(vectors):
    return [[x.literal() for x in v] for v in vectors]


def case_inputs(k: int) -> dict:
    """Seeded inputs of case k, as literals."""
    flag, two_n, r = CASES[k]
    field = Field.from_flag(flag)
    rng = random.Random(f"golden-witt:{flag}:{two_n}:{r}")
    space = SymplecticSpace(field, two_n // 2)
    v = random_nondeg_seq(space, r, rng)
    w = v.transform(random_sp(space, rng, steps=2, bound=3))
    return {"v": _literals(v.vectors), "w": _literals(w.vectors),
            "t_vector": _literals([space.random_vector(rng, 3)])[0],
            "t_coeff": field.sample(rng, 3).literal()}


def case_outputs(k: int, inputs: dict) -> dict:
    """g = witt_extend(v, w) and the transvection of case k, as JSON."""
    flag, two_n, _ = CASES[k]
    field = Field.from_flag(flag)
    space = SymplecticSpace(field, two_n // 2)

    def parse(vectors):
        return [tuple(parse_scalar(x, field) for x in v) for v in vectors]

    (t_vector,) = parse([inputs["t_vector"]])
    g = witt_extend(space, parse(inputs["v"]), parse(inputs["w"]))
    t = transvection(space, t_vector, parse_scalar(inputs["t_coeff"], field))
    return {"g": g.matrix.to_json(), "transvection": t.to_json()}


def _lines():
    return [json.loads(line) for line in DATA.read_text().splitlines()]


def test_the_file_covers_every_case():
    assert [tuple(entry["case"]) for entry in _lines()] == CASES


@pytest.mark.parametrize("k", range(len(CASES)),
                         ids=[f"{f}-{n}-{r}" for f, n, r in CASES])
def test_witt_output_is_identical(k):
    entry = _lines()[k]
    assert case_outputs(k, entry["inputs"]) == entry["outputs"]


if __name__ == "__main__":
    out = []
    for k in range(len(CASES)):
        inputs = case_inputs(k)
        out.append(json.dumps({"case": CASES[k], "inputs": inputs,
                               "outputs": case_outputs(k, inputs)}) + "\n")
    DATA.write_text("".join(out))
