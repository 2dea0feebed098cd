"""Golden report text for the exact suites.

`test_verify_verb_and_determinism` only shows that two runs agree; these
strings pin the rendered reports themselves, so a change in the exact
kernel cannot alter report text unnoticed.
"""

import random

import numpy as np
import pytest

from swapalg import verify
from swapalg.verify import run_suite

LINKING_AXIOMS = "\n".join(
    [
        'suite: linking-axioms',
        'check                     law                                                         worst         bound       status',
        '----------------------------------------------------------------------------------------------------------------------',
        'first-antisymmetry        first antisymmetry: [Xx,Yy] + [Yy,Xx] = 0                   0             exact       pass  ',
        'second-antisymmetry       second antisymmetry: [Xx,Yy] + [Xx,yY] = 0                  0             exact       pass  ',
        'cocycle                   cocycle identity: [zy,XY] + [zy,YZ] + [zy,ZX] = 0           0             exact       pass  ',
        'alternative               linking alternative: [Xx,Yy].[Xy,Yx] = 0 for distinct p...  0             exact       pass  ',
        'cut-invariance            linking numbers agree for every valid cut                   0             exact       pass  ',
        '',
        'suite=linking-axioms',
        'checks=5',
        'failures=0',
        'first-antisymmetry.deviation=0',
        'first-antisymmetry.pass=true',
        'second-antisymmetry.deviation=0',
        'second-antisymmetry.pass=true',
        'cocycle.deviation=0',
        'cocycle.pass=true',
        'alternative.deviation=0',
        'alternative.pass=true',
        'cut-invariance.deviation=0',
        'cut-invariance.pass=true',
    ]
)

SIX_POINT = "\n".join(
    [
        'suite: six-point',
        'check                     law                                                         worst         bound       status',
        '----------------------------------------------------------------------------------------------------------------------',
        'four-point-relation       [Xy,Zz] + [Yx,Zz] = [Xx,Zz] + [Yy,Zz]                       0             exact       pass  ',
        'six-point-first           first six-point identity vanishes off the common-point ...  0             exact       pass  ',
        'six-point-second          second six-point identity vanishes off the common-point...  0             exact       pass  ',
        'degenerate-quarter        F(X,x,Y,x,Z,x) = 1/4 at positions (0.1, 0.2, 0.3, 0.4)      0             exact       pass  ',
        'f-g-swap                  G(X,x,Y,y,Z,z) = -F(Y,y,X,x,Z,z)                            0             exact       pass  ',
        '',
        'suite=six-point',
        'checks=5',
        'failures=0',
        'four-point-relation.deviation=0',
        'four-point-relation.pass=true',
        'six-point-first.deviation=0',
        'six-point-first.pass=true',
        'six-point-second.deviation=0',
        'six-point-second.pass=true',
        'degenerate-quarter.deviation=0',
        'degenerate-quarter.pass=true',
        'f-g-swap.deviation=0',
        'f-g-swap.pass=true',
    ]
)

JACOBI = "\n".join(
    [
        'suite: jacobi   seed: 42',
        'check                     law                                                         worst         bound       status',
        '----------------------------------------------------------------------------------------------------------------------',
        'jacobi-alpha-0            Jacobi identity: {{a,b},c} + {{b,c},a} + {{c,a},b} = 0      0             exact       pass  ',
        'jacobi-alpha-1            Jacobi identity: {{a,b},c} + {{b,c},a} + {{c,a},b} = 0      0             exact       pass  ',
        'jacobi-alpha--1/4         Jacobi identity: {{a,b},c} + {{b,c},a} + {{c,a},b} = 0      0             exact       pass  ',
        'antisymmetry              bracket antisymmetry: {a,b} + {b,a} = 0                     0             exact       pass  ',
        'degree                    bracket of degree-p and degree-q terms is homogeneous o...  0             exact       pass  ',
        '',
        'suite=jacobi',
        'seed=42',
        'checks=5',
        'failures=0',
        'jacobi-alpha-0.deviation=0',
        'jacobi-alpha-0.pass=true',
        'jacobi-alpha-1.deviation=0',
        'jacobi-alpha-1.pass=true',
        'jacobi-alpha--1/4.deviation=0',
        'jacobi-alpha--1/4.pass=true',
        'antisymmetry.deviation=0',
        'antisymmetry.pass=true',
        'degree.deviation=0',
        'degree.pass=true',
    ]
)


@pytest.mark.parametrize(
    "name, options, golden",
    [
        ("linking-axioms", {}, LINKING_AXIOMS),
        ("six-point", {}, SIX_POINT),
        ("jacobi", {"count": 50, "seed": 42}, JACOBI),
    ],
    ids=["linking-axioms", "six-point", "jacobi"],
)
def test_report_text_is_pinned(name, options, golden):
    assert run_suite(name, **options).render() == golden


def _corrupted_table(seed, n):
    """Doubled linking numbers replaced by draws from -2..2, filled with the
    first index outermost and the last innermost."""
    rng = random.Random(seed)
    values = [rng.randint(-2, 2) for _ in range(n**4)]
    return np.array(values, dtype=np.int8).reshape(n, n, n, n)


@pytest.mark.parametrize(
    "name, seed, n, deviations, detail",
    [
        (
            "linking-axioms",
            7,
            7,
            {"first-antisymmetry": 1880, "second-antisymmetry": 1916,
             "cocycle": 14141, "alternative": 526},
            None,
        ),
        (
            "six-point",
            8,
            6,
            {"four-point-relation": 27904, "six-point-first": 32130,
             "six-point-second": 32349},
            "38790 sextuples",
        ),
    ],
    ids=["linking-axioms", "six-point"],
)
def test_laws_count_violations_of_a_corrupted_table(monkeypatch, name, seed, n, deviations, detail):
    """Negative control: the counts were taken with the earlier per-tuple
    loops, so a law that reads the table at the wrong indices fails here."""
    monkeypatch.setattr(verify, "_linking_table", lambda points: _corrupted_table(seed, n))
    sizes = []
    count_nonzero = np.count_nonzero

    def recording(values):
        sizes.append(np.size(values))
        return count_nonzero(values)

    monkeypatch.setattr(np, "count_nonzero", recording)
    _, points = verify._grid_config(n, n)
    rows = {row.name: row for row in run_suite(name, points=points).rows}
    assert {key: rows[key].deviation for key in deviations} == deviations
    assert all(type(rows[key].deviation) is int for key in deviations)
    if name == "linking-axioms":
        assert max(sizes) <= n**4
    else:
        assert rows["six-point-first"].detail == rows["six-point-second"].detail == detail
