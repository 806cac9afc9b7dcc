"""Brute-force cross-checks of the decision procedure.

The verification suites and the tests import this module; the decision path
(``genericmodel`` and everything the CLI reaches outside ``verify``) does
not.  It holds a second arithmetic that reads the unit degrees, not the
row maps of the closed-form row walks:

* ``naive_monomial_product``: iterated multiplication of generic matrices,
  against ``genericmodel.monomial_product``;
* ``matrix_unit_oracle``: substitution of every tuple of matrix units, an
  identity check for multilinear polynomials without generic matrices;
* ``unit_chain_exists``: a search over unit tuples for the chain of a
  complete sequence;
* ``unit_walks``: the row walks of a degree sequence, unit by unit, against
  the walk over row maps (``grading._walk_from``) that ``row_walk`` and
  ``find_congruence`` read.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from .grading import ElementaryGrading, Grade, GradingError
from .freealg import Monomial, Polynomial, Var
from .genericmodel import PolyMatrix, Position, SparsePoly


def poly_product(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """Product of two commutative polynomials."""
    out: Dict[tuple, int] = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            powers = dict(k1)
            for v, e in k2:
                powers[v] = powers.get(v, 0) + e
            key = tuple(sorted(powers.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return SparsePoly(out)


def matrix_product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Product of two polynomial matrices of the same size."""
    right_rows: Dict[int, List[Tuple[int, SparsePoly]]] = {}
    for (k, j), right in b.cells.items():
        right_rows.setdefault(k, []).append((j, right))
    out: Dict[Position, Dict[tuple, int]] = {}
    for (i, k), left in a.cells.items():
        for j, right in right_rows.get(k, ()):
            cell = out.setdefault((i, j), {})
            for key, c in poly_product(left, right).terms.items():
                cell[key] = cell.get(key, 0) + c
    return PolyMatrix(a.n, {pos: SparsePoly(cell) for pos, cell in out.items()})


def _units(grading: ElementaryGrading, grades: Sequence[Grade]) -> List[List[Position]]:
    """The unit positions of each grade, row-major, from one scan of the n^2
    unit degrees; a grade outside the structure is refused."""
    by_degree: Dict[Grade, List[Position]] = {}
    unit_degree, rows = grading.structure.unit_degree, grading.row_grades
    for i, j in itertools.product(range(1, grading.n + 1), repeat=2):
        by_degree.setdefault(unit_degree(rows, i, j), []).append((i, j))
    return [by_degree.get(grading.structure.require(h), []) for h in grades]


def make_generic(grading: ElementaryGrading, h: Grade, i: int) -> PolyMatrix:
    """The canonical degree-h generic matrix with generic index i: the
    product of the one-letter word x[h,i]."""
    return naive_monomial_product(grading, Monomial((Var(h, i),)))


def naive_monomial_product(grading: ElementaryGrading, m: Monomial) -> PolyMatrix:
    """Iterated matrix multiplication from the identity matrix, letter x[h,i]
    being y[h,i,k] at each unit (k, j) of degree h (at most one per row);
    the independent cross-check for the closed form."""
    n = grading.n
    acc = PolyMatrix(n, {(k, k): SparsePoly.one() for k in range(1, n + 1)})
    for (h, i), units in zip(m.vars, _units(grading, [v.grade for v in m.vars])):
        acc = matrix_product(acc, PolyMatrix(n, {(k, j): SparsePoly.variable((h, i, k)) for k, j in units}))
    return acc


def unit_walks(grading: ElementaryGrading, hs: Sequence[Grade]) -> Dict[int, Tuple[int, ...]]:
    """Start row to the rows visited by a left-to-right sequence of degrees,
    for each start row whose walk survives: every step follows the unit of
    the letter's degree in the current row, at most one per row."""
    steps = [dict(units) for units in _units(grading, hs)]
    walks = {}
    for k in range(1, grading.n + 1):
        path = [k]
        for step in steps:
            if path[-1] not in step:
                break
            path.append(step[path[-1]])
        else:
            walks[k] = tuple(path)
    return walks


def units_of_degree(grading: ElementaryGrading, h: Grade) -> List[Tuple[int, int]]:
    """All matrix unit positions carrying the degree h."""
    return _units(grading, [h])[0]


def _multilinear_variables(f: Polynomial) -> List[Var]:
    if f.is_zero:
        return []
    common = None
    for m in f.terms:
        seen = set()
        for v in m.vars:
            if v in seen:
                raise GradingError("not multilinear: repeated variable in a term")
            seen.add(v)
        if common is None:
            common = seen
        elif seen != common:
            raise GradingError("not multilinear: terms use different variable sets")
    if not common:
        raise GradingError("not multilinear: constant polynomial")
    return sorted(common)


def matrix_unit_oracle(f: Polynomial, grading: ElementaryGrading) -> bool:
    """Brute-force identity check for multilinear polynomials.

    Substitutes every tuple of matrix units of the correct degrees and checks
    that each resulting integer matrix vanishes.  Multilinearity makes this
    exhaustive check equivalent to vanishing on all homogeneous elements, so
    it serves as an independent oracle for the generic-matrix procedure.
    """
    if f.is_zero:
        return True
    vars_ = _multilinear_variables(f)
    choices = _units(grading, [v.grade for v in vars_])
    for combo in itertools.product(*choices):
        env = dict(zip(vars_, combo))
        total: Dict[Tuple[int, int], int] = {}
        for mono, coeff in f.terms.items():
            pos = None
            dead = False
            for v in mono.vars:
                u = env[v]
                if pos is None:
                    pos = u
                elif pos[1] == u[0]:
                    pos = (pos[0], u[1])
                else:
                    dead = True
                    break
            if dead or pos is None:
                continue
            nc = total.get(pos, 0) + coeff
            if nc:
                total[pos] = nc
            else:
                del total[pos]
        if total:
            return False
    return True


def unit_chain_exists(grading: ElementaryGrading, seq: Sequence[int]) -> bool:
    """Brute force: some tuple of units with these degrees chains up, covers
    every row, and closes."""
    n = grading.n
    unit_sets = _units(grading, [g % n for g in seq])
    for combo in itertools.product(*unit_sets):
        if any(combo[l][1] != combo[l + 1][0] for l in range(n - 1)):
            continue
        if combo[-1][1] != combo[0][0]:
            continue
        if {u[0] for u in combo} != set(range(1, n + 1)):
            continue
        return True
    return False
