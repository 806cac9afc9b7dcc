"""Generator families for graded identities and central polynomials.

Builds the known finite generating families for the supported gradings, with
every instance verifiable through the generic-matrix procedure:

* identities of cyclic residue gradings: families (1)-(2);
* identities of general finite-group gradings: (1)-(4), where (4) collects
  the support-closed multilinear monomial identities up to a cutoff;
* identities of the canonical integer grading: (1)-(3);
* identities of the positional grading: (5)-(7);
* central polynomials over a prime residue grading: (8)-(11);
* central polynomials over the canonical integer grading: (12)-(15).

The numeric family ids are the stable tokens used in machine-readable
reports.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .grading import (
    ElementaryGrading,
    FINITE_GROUP,
    Grade,
    INTEGERS,
    MATRIX_UNITS,
    MU_ZERO,
    _is_prime,
    enumerate_complete_sequences,
    is_complete_sequence,
)
from .freealg import Monomial, Polynomial, Var, format_polynomial, twin_block_threshold
from .genericmodel import _decisive_rows, _require_zero_constant, _row_one_nonscalar_position

#: largest number of row steps that one monomial-identity scan may take
#: (``enumerate_monomial_identities`` up to its degree bound, family (4) up
#: to its cutoff).  n * sum(d * |support|^d) over d <= D bounds the steps of
#: either scan: ``enumerate_monomial_identities`` walks every degree tuple of
#: length d over the support from each of the n rows, and family (4) only
#: the support-closed tuples whose prefix survives.  The bound is checked
#: before the scan starts, so a larger scan is refused, not run.
MAX_SCAN_STEPS = 500_000

#: the families whose instances are central but not identities.  Every other
#: family is checked to vanish, the central families (8), (9) and (12)-(14)
#: included: an identity is central as well, since the zero matrix is scalar.
PROPER_CENTRAL_FAMILIES = frozenset({"(10)", "(11)", "(15)"})


class BasesError(ValueError):
    """Unsupported grading/kind combination or violated precondition."""


class GeneratorInstance(NamedTuple):
    family: str
    poly: Polynomial
    params: dict


class BasisInstances(NamedTuple):
    instances: List[GeneratorInstance]
    truncated: bool


def _commutator(a: Var, b: Var) -> Polynomial:
    return Polynomial({Monomial((a, b)): 1, Monomial((b, a)): -1})


def _reversal(a: Var, b: Var, c: Var) -> Polynomial:
    return Polynomial({Monomial((a, b, c)): 1, Monomial((c, b, a)): -1})


def canonical_monomial(hs: Sequence[Grade]) -> Monomial:
    """Multilinear monomial for a degree tuple, indexed per grade by first
    occurrence, so identity-hood depends only on the tuple."""
    counts: Dict[Grade, int] = {}
    vars = []
    for h in hs:
        counts[h] = counts.get(h, 0) + 1
        vars.append(Var(h, counts[h]))
    return Monomial(vars)


def _check_scan(grading: ElementaryGrading, max_degree: int) -> None:
    """Refuse a negative degree bound, and a monomial-identity scan up to it
    of more than ``MAX_SCAN_STEPS`` row steps."""
    if max_degree < 0:
        raise BasesError(f"degree bound must be non-negative, got {max_degree}")
    n, size = grading.n, len(grading.support())
    steps = 0
    for d in range(1, max_degree + 1):
        steps += n * d * size**d
        if steps > MAX_SCAN_STEPS:
            raise BasesError(
                f"scanning degree tuples up to degree {max_degree} over {size} "
                f"support grades on {n} rows exceeds the limit of {MAX_SCAN_STEPS} row steps"
            )


def enumerate_monomial_identities(grading: ElementaryGrading, max_degree: int) -> Iterator[Monomial]:
    """All multilinear monomial identities up to a degree bound.

    One canonical representative is produced per degree tuple over the
    support, of degree 1 to ``max_degree``, that no row walk survives; a
    tuple with a grade outside the support is an identity for the trivial
    reason and is not enumerated.  Refuses a negative bound, and a scan of
    more than ``MAX_SCAN_STEPS`` row steps, before any tuple is walked.
    """
    _check_scan(grading, max_degree)
    supp = sorted(grading.support())
    return (
        canonical_monomial(hs)
        for d in range(1, max_degree + 1)
        for hs in itertools.product(supp, repeat=d)
        if not grading.row_walk(hs)
    )


def _residue(grading: ElementaryGrading, grade: Grade) -> int:
    if grading.structure.is_cyclic:
        return grade
    if grading.structure.kind == INTEGERS:
        return grade % grading.n
    raise BasesError("residues are only defined for cyclic and integer gradings")


def cyclic_symmetrization(vars: Sequence[Var], grading: ElementaryGrading) -> Polynomial:
    """Sum of the n cyclic rotations of the product of n variables.

    The degree sequence of the variables, reduced to residues, must be a
    complete sequence; under that hypothesis the sum is central.
    """
    vars = tuple(vars)
    n = len(vars)
    if n != grading.n:
        raise BasesError(f"need exactly {grading.n} variables, got {n}")
    residues = [_residue(grading, v.grade) for v in vars]
    if not is_complete_sequence(n, residues):
        raise BasesError("the degree sequence is not complete")
    terms: Dict[Monomial, int] = {}
    for shift in range(n):
        mono = Monomial(vars[shift:] + vars[:shift])
        terms[mono] = terms.get(mono, 0) + 1
    return Polynomial(terms)


# -- family builders -------------------------------------------------------------


def _neutral_commutator(grading: ElementaryGrading) -> GeneratorInstance:
    e = grading.structure.identity
    return GeneratorInstance("(1)", _commutator(Var(e, 1), Var(e, 2)), {})


def _reversal_instances(grading: ElementaryGrading, grades: Iterable[Grade]) -> List[GeneratorInstance]:
    st = grading.structure
    out = []
    for g in grades:
        inv = st.inverse(g)
        poly = _reversal(Var(g, 1), Var(inv, 2), Var(g, 3))
        out.append(GeneratorInstance("(2)", poly, {"g": st.format_grade(g)}))
    return out


def _kill_instances(grading: ElementaryGrading, grades: Iterable[Grade]) -> List[GeneratorInstance]:
    st = grading.structure
    return [
        GeneratorInstance(
            "(3)", Polynomial.from_var(Var(h, 1)), {"h": st.format_grade(h)}
        )
        for h in grades
    ]


def _integer_kill_grades(n: int) -> List[int]:
    """Representatives of the grades outside the support of z:n, whose
    variables the kill families (3) and (14) cover."""
    return [n, -n, n + 1, -(n + 1)]


def _support_closed_monomial_identities(
    grading: ElementaryGrading, cutoff: int
) -> Tuple[List[GeneratorInstance], bool]:
    """Family (4): one canonical monomial per dead support-closed degree
    tuple over the support, of degree 1 to the cutoff (at most the twin-block
    threshold), by degree and then in ``itertools.product`` order.

    Closure and death pass to every extension, so the tuples of degree d + 1
    are built from the closed ones of degree d, in order, and only a closed
    tuple whose prefix survives is walked.  The support holds the identity
    and is closed under inverses, so a new prefix value p keeps a tuple
    closed iff q^-1 p lies in the support for every earlier prefix value q.
    """
    supp = grading.support()
    threshold = twin_block_threshold(len(supp))
    effective = min(cutoff, threshold)
    _check_scan(grading, effective)
    st = grading.structure
    mul, inverse, row_walk = st.mul, st.inverse, grading.row_walk
    grades = sorted(supp)
    names = {h: st.format_grade(h) for h in grades}
    out = []
    # per closed tuple: its prefix value, the inverses of its distinct prefix
    # values, and whether some row walk survives it
    level = [((), st.identity, (st.identity,), True)]
    for d in range(1, effective + 1):
        extended = []
        for hs, cur, inverses, alive in level:
            for h in grades:
                p = mul(cur, h)
                p_inv = inverse(p)
                known = inverses
                if p_inv not in known:
                    if not all(mul(q_inv, p) in supp for q_inv in known):
                        continue
                    known += (p_inv,)
                ext = hs + (h,)
                survives = alive and bool(row_walk(ext))
                if not survives:
                    out.append(
                        GeneratorInstance(
                            "(4)",
                            Polynomial.from_monomial(canonical_monomial(ext)),
                            {"h": [names[g] for g in ext]},
                        )
                    )
                if d < effective:
                    extended.append((ext, p, known, survives))
        level = extended
    return out, effective < threshold


def _flank_family(
    family: str,
    grading: ElementaryGrading,
    inner: List[GeneratorInstance],
    flank_grades: Sequence[Grade],
) -> List[GeneratorInstance]:
    """Each inner instance, relabelled to ``family``, alone and then flanked
    as z1 * f * z2 for every pair of flank grades.  The flanking variables
    take indices 4 and 5, which no inner instance uses."""
    st = grading.structure
    out = []
    for base in inner:
        out.append(GeneratorInstance(family, base.poly, dict(base.params, flanked=False)))
        for a, b in itertools.product(flank_grades, repeat=2):
            z1 = Polynomial.from_var(Var(a, 4))
            z2 = Polynomial.from_var(Var(b, 5))
            out.append(
                GeneratorInstance(
                    family,
                    z1 * base.poly * z2,
                    dict(
                        base.params,
                        flanked=True,
                        z1=st.format_grade(a),
                        z2=st.format_grade(b),
                    ),
                )
            )
    return out


def _central_power_family(grading: ElementaryGrading) -> List[GeneratorInstance]:
    """Family (10): the central power monomials over a prime residue grading."""
    p = grading.n
    st = grading.structure
    out = []
    if p == 2:
        z1, z2 = Var(1, 1), Var(1, 2)
        out.append(
            GeneratorInstance("(10)", Polynomial.from_monomial(Monomial((z1, z1))), {"shape": "z1^2"})
        )
        out.append(
            GeneratorInstance(
                "(10)",
                Polynomial.from_monomial(Monomial((z1, z1, z2, z2))),
                {"shape": "z1^2*z2^2"},
            )
        )
        return out
    nonzero = [g for g in range(p) if g != 0]
    for l in range(1, p):
        for grades in itertools.permutations(nonzero, l):
            vars = []
            for t, g in enumerate(grades, start=1):
                vars.extend([Var(g, t)] * p)
            out.append(
                GeneratorInstance(
                    "(10)",
                    Polynomial.from_monomial(Monomial(vars)),
                    {"grades": [st.format_grade(g) for g in grades]},
                )
            )
    return out


def _symmetrization_family(
    family: str, grading: ElementaryGrading, sequences: Iterable[Sequence[Grade]]
) -> List[GeneratorInstance]:
    st = grading.structure
    out = []
    for seq in sequences:
        vars = [Var(g, l + 1) for l, g in enumerate(seq)]
        out.append(
            GeneratorInstance(
                family,
                cyclic_symmetrization(vars, grading),
                {"degrees": [st.format_grade(g) for g in seq]},
            )
        )
    return out


def build_basis(
    grading: ElementaryGrading, kind: str, cutoff: Optional[int] = None
) -> BasisInstances:
    """Instantiate the generating family for a grading and kind.

    ``kind`` is "identities" or "central".  ``cutoff`` caps the enumeration
    degree of family (4); the result is flagged truncated when the cap is
    below the full enumeration threshold.  Family (4) is enumerated degree by
    degree, extending each support-closed tuple by every support grade and
    walking only the closed extensions whose prefix still survives.  A
    negative cutoff, or one whose scan bound is more than ``MAX_SCAN_STEPS``
    row steps, is refused.  Families with infinitely many instances over the
    integer grading ((2), (3), (14)) are emitted for a finite representative
    set of grades.  The central families first list their complete
    sequences, the (n-1)! of family (11) or the n! lifts of family (15), so a
    grading with more than ``MAX_COMPLETE_SEQUENCES`` of them is refused
    before any family is built.
    """
    if cutoff is not None and cutoff < 0:
        raise BasesError(f"cutoff must be non-negative, got {cutoff}")
    st = grading.structure
    n = grading.n
    if kind == "identities":
        if st.kind == FINITE_GROUP:
            instances = [_neutral_commutator(grading)]
            instances += _reversal_instances(
                grading, [g for g in st.elements() if g != st.identity]
            )
            if st.order == n:
                # the support is the whole group: the kill family is empty and
                # no monomial identities exist, so (1)-(2) already generate
                return BasisInstances(instances, False)
            instances += _kill_instances(
                grading, [h for h in st.elements() if h not in grading.support()]
            )
            fam4, truncated = _support_closed_monomial_identities(
                grading, cutoff if cutoff is not None else 4
            )
            return BasisInstances(instances + fam4, truncated)
        if st.kind == INTEGERS:
            instances = [_neutral_commutator(grading)]
            grades = [g for g in range(-(n - 1), n) if g != 0] + [n, -n]
            instances += _reversal_instances(grading, grades)
            instances += _kill_instances(grading, _integer_kill_grades(n))
            return BasisInstances(instances, False)
        if st.kind == MATRIX_UNITS:
            instances = []
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    poly = _commutator(Var((i, i), 1), Var((j, j), 2))
                    instances.append(GeneratorInstance("(5)", poly, {"i": i, "j": j}))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    poly = _reversal(Var((i, j), 1), Var((j, i), 2), Var((i, j), 3))
                    instances.append(GeneratorInstance("(6)", poly, {"i": i, "j": j}))
            instances.append(
                GeneratorInstance("(7)", Polynomial.from_var(Var(MU_ZERO, 1)), {})
            )
            return BasisInstances(instances, False)
        raise BasesError(f"unsupported grading kind for identities: {st.kind}")
    if kind == "central":
        if st.is_cyclic and st.order == n and _is_prime(n):
            sequences = enumerate_complete_sequences(n)
            grades = list(range(n))
            instances = _flank_family("(8)", grading, [_neutral_commutator(grading)], grades)
            instances += _flank_family(
                "(9)", grading, _reversal_instances(grading, grades[1:]), grades
            )
            instances += _central_power_family(grading)
            instances += _symmetrization_family("(11)", grading, sequences)
            return BasisInstances(instances, False)
        if st.kind == INTEGERS:
            sequences = enumerate_complete_sequences(n, lift=True)
            supp = sorted(grading.support())
            instances = _flank_family("(12)", grading, [_neutral_commutator(grading)], supp)
            instances += _flank_family(
                "(13)", grading, _reversal_instances(grading, [g for g in supp if g != 0]), supp
            )
            instances += _flank_family(
                "(14)", grading, _kill_instances(grading, _integer_kill_grades(n)), supp
            )
            instances += _symmetrization_family("(15)", grading, sequences)
            return BasisInstances(instances, False)
        raise BasesError(
            "central families are available for prime residue gradings and the "
            "canonical integer grading only"
        )
    raise BasesError(f"unknown basis kind {kind!r}")


def verify_instance(inst: GeneratorInstance, grading: ElementaryGrading) -> bool:
    """Check an instance against its family's defining property: a nonzero
    scalar for ``PROPER_CENTRAL_FAMILIES``, zero for every other family.

    Both verdicts read one coded walk, the CLI verdicts' ``_decisive_rows``.
    """
    value = _decisive_rows(inst.poly, grading)
    if inst.family not in PROPER_CENTRAL_FAMILIES:
        return value.is_zero
    _require_zero_constant(inst.poly)
    return not value.is_zero and _row_one_nonscalar_position(value, grading) is None


def basis_report(
    grading: ElementaryGrading, kind: str, cutoff: Optional[int] = None
) -> dict:
    """Machine-readable verification report over a generating family."""
    basis = build_basis(grading, kind, cutoff)
    families: Dict[str, dict] = {}
    for inst in basis.instances:
        bucket = families.setdefault(
            inst.family, {"id": inst.family, "instances": 0, "verified": 0, "failures": []}
        )
        bucket["instances"] += 1
        if verify_instance(inst, grading):
            bucket["verified"] += 1
        else:
            bucket["failures"].append(
                {
                    "params": inst.params,
                    "poly": format_polynomial(inst.poly, grading),
                }
            )
    ordered = sorted(families.values(), key=lambda fam: int(fam["id"].strip("()")))
    return {
        "grading": grading.describe(),
        "kind": kind,
        "families": ordered,
        "truncated": basis.truncated,
    }
