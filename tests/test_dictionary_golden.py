"""Golden test dictionary: the certified scales of every gamma and the
pairing gaps of one fixed empirical measure on the sphere must stay bit
for bit what tests/data/dictionary_golden.json records.  The 1-D domains
have no dictionary; their distances are the two-sided bounds of
`dist_gamma_bounds`.

The golden CSVs only exercise gamma = 1, so this file is what guards the
other gammas of the norms.
Regenerate the data with `PYTHONPATH=src python tests/test_dictionary_golden.py`
only when a change to the dictionaries is intended.
"""

import json
from pathlib import Path

import pytest

from feketelab.equilibrium import build_dictionaries, dist_gamma_dict, equilibrium_reference
from feketelab.fekete import EmpiricalMeasure, Sphere

DATA = Path(__file__).parent / "data" / "dictionary_golden.json"

CASES = {
    "sphere": (Sphere(), (0.5, 1.0), lambda: Sphere().mesh(25)),
}


def snapshot(name: str) -> dict:
    """Scales (as raw float64 bytes) and pair gaps of one golden case.

    `pair_gap` is the gap against the closed-form reference measure;
    `pair_gap_empirical` pairs the measure with its first half of atoms,
    which exercises the empirical-reference path.
    """
    domain, gammas, atoms = CASES[name]
    mu = EmpiricalMeasure(domain, atoms())
    half = EmpiricalMeasure(domain, mu.atoms[: len(mu.atoms) // 2])
    ref = equilibrium_reference(domain)
    dct = build_dictionaries(domain, gammas)
    gaps, gaps_empirical = dist_gamma_dict(mu, ref, dct), dist_gamma_dict(mu, half, dct)
    return {
        f"{g:g}": {
            "scales": scales.tobytes().hex(),
            "pair_gap": gaps[g].hex(),
            "pair_gap_empirical": gaps_empirical[g].hex(),
        }
        for g, scales in zip(dct.gammas, dct.scales)
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_dictionary_matches_golden(name):
    expected = json.loads(DATA.read_text(encoding="utf-8"))[name]
    assert snapshot(name) == expected


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({name: snapshot(name) for name in sorted(CASES)}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
