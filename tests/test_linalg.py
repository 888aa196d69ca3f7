"""The fraction-free elimination against the Fraction elimination of the oracles."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import boxlogic as bl
from boxlogic.linalg import eliminate, gcd_reduce, solve_affine

import oracles

entries = st.integers(-3, 3)


@st.composite
def systems(draw):
    """Small integer systems ``(rows, rhs, ncols)``: some rank deficient
    (one row a combination of two others), some with a zero row, many
    inconsistent, negative entries throughout."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    if rows and draw(st.booleans()):
        a, b = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        k = draw(entries)
        rows.append([x + k * y for x, y in zip(rows[a], rows[b])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, ncols


def times(rows, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


@settings(max_examples=200, deadline=None)
@given(systems())
def test_eliminate_is_the_reduced_echelon_form_over_one_denominator(system):
    rows, _, _ = system
    reduced, pivots, den = eliminate(rows)
    expected_rows, expected_pivots = oracles._reduced(rows)
    assert den > 0
    assert pivots == expected_pivots
    assert len(pivots) == oracles.rank(rows)
    assert [[Fraction(x, den) for x in row] for row in reduced] == expected_rows


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_affine_against_the_oracle(system):
    rows, rhs, ncols = system
    _, pivots = oracles._reduced([[*row, b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        with pytest.raises(bl.BoxLogicError, match="inconsistent"):
            solve_affine(rows, rhs, ncols)
        return
    x0, d0, basis = solve_affine(rows, rhs, ncols)
    assert d0 > 0 and gcd(d0, *x0) == 1
    assert times(rows, x0) == [d0 * b for b in rhs]
    assert len(basis) == ncols - oracles.rank(rows)
    assert oracles.rank(basis) == len(basis)
    for vec in basis:
        assert times(rows, vec) == [0] * len(rows)
        assert gcd(*vec) == 1


@settings(max_examples=200, deadline=None)
@given(systems())
def test_transposed_pivots_choose_the_first_independent_rows(system):
    rows, _, _ = system
    greedy = []
    for i, row in enumerate(rows):
        if oracles.rank([rows[j] for j in greedy] + [row]) > len(greedy):
            greedy.append(i)
    _, chosen, _ = eliminate(list(zip(*rows)))
    assert chosen == greedy

    # the enumerate_vertices set-up, where the chosen rows are square: on the
    # pivot columns of the chosen rows, M is nonsingular, and the columns of
    # the right block of reduced [M | I] invert M up to a positive scale each
    _, columns, _ = eliminate([rows[i] for i in chosen])
    initial = [[rows[i][c] for c in columns] for i in chosen]
    d = len(initial)
    identity = [[int(i == k) for k in range(d)] for i in range(d)]
    reduced, _, _ = eliminate([[*row, *unit] for row, unit in zip(initial, identity)])
    for k, col in enumerate(list(zip(*reduced))[d:]):
        product = times(initial, gcd_reduce(col))
        assert product[k] > 0
        assert product == [product[k] * unit for unit in identity[k]]
