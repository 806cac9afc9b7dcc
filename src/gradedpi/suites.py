"""Verification suites: seeded batteries over the whole decision pipeline.

Each battery returns a list of item results; each named suite of the
command-line ``verify`` subcommand is a tuple of batteries, whose items
``run_suite`` joins in order.  All randomness flows from one seed per
battery, so reports are reproducible.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .grading import (
    ElementaryGrading,
    INTEGERS,
    MU_ZERO,
    complete_sequence_unit_witness,
    is_complete_sequence,
    parse_grading_spec,
)
from .freealg import (
    Monomial,
    Polynomial,
    Var,
    apply_substitution,
    classify,
    twin_block_threshold,
)
from .genericmodel import PolyMatrix, entry_match, evaluate, is_identity, monomial_product
from .oracles import matrix_unit_oracle, naive_monomial_product, unit_chain_exists, unit_walks
from .rewrite import _rule_names, apply_rule, find_congruence, replay
from .bases import (
    GeneratorInstance,
    basis_report,
    build_basis,
    canonical_monomial,
    cyclic_symmetrization,
    enumerate_monomial_identities,
    verify_instance,
)


class ItemResult(NamedTuple):
    item: str
    passed: bool
    detail: str = ""


def all_passed(items: Iterable[ItemResult]) -> bool:
    return all(item.passed for item in items)


def _item(items: List[ItemResult], name: str, passed: bool, detail: str = ""):
    items.append(ItemResult(name, bool(passed), detail))


# -- random generation helpers ---------------------------------------------------


def _random_grade(grading: ElementaryGrading, rng: random.Random):
    st = grading.structure
    if st.kind == INTEGERS:
        return rng.randint(-grading.n, grading.n)
    return rng.choice(list(st.elements()))


def _random_monomial_of_grade(
    grading: ElementaryGrading, target, rng: random.Random, *, index_base=20
) -> Monomial:
    """Random monomial whose degree equals the target (group kinds only)."""
    st = grading.structure
    length = rng.randint(1, 3)
    grades = []
    for _ in range(length - 1):
        grades.append(_random_grade(grading, rng))
    acc = st.product(grades)
    grades.append(st.mul(st.inverse(acc), target))
    return Monomial(Var(g, rng.randint(index_base, index_base + 5)) for g in grades)


def _random_consequence(
    poly: Polynomial, grading: ElementaryGrading, rng: random.Random
) -> Polynomial:
    """Random graded-substitution image, possibly multiplied on both sides."""
    mapping = {}
    for v in sorted(poly.variables()):
        image = _random_monomial_of_grade(grading, v.grade, rng)
        mapping[v] = Polynomial.from_monomial(image)
    out = apply_substitution(poly, mapping, grading)
    if rng.random() < 0.5:
        z1 = _random_monomial_of_grade(grading, _random_grade(grading, rng), rng, index_base=40)
        z2 = _random_monomial_of_grade(grading, _random_grade(grading, rng), rng, index_base=50)
        out = Polynomial.from_monomial(z1) * out * Polynomial.from_monomial(z2)
    return out


def _restricted_growth_strings(m: int):
    """All canonical block labelings of m positions (set partitions)."""
    if m == 0:
        yield ()
        return
    stack = [((0,), 0)]
    while stack:
        prefix, mx = stack.pop()
        if len(prefix) == m:
            yield prefix
            continue
        for v in range(mx + 2):
            stack.append((prefix + (v,), max(mx, v)))


def _monomials_for_degree_tuple(hs: Sequence) -> Iterable[Monomial]:
    """All monomials with the given degree tuple, up to renaming of variables.

    Positions of equal grade may share a variable; enumerating the canonical
    block labelings per grade covers every repetition pattern exactly once.
    """
    by_grade: Dict[object, List[int]] = {}
    for c, h in enumerate(hs):
        by_grade.setdefault(h, []).append(c)
    grades = sorted(by_grade)
    pattern_sets = [list(_restricted_growth_strings(len(by_grade[g]))) for g in grades]
    for combo in itertools.product(*pattern_sets):
        assign: Dict[int, Var] = {}
        for g, pattern in zip(grades, combo):
            for pos, block in zip(by_grade[g], pattern):
                assign[pos] = Var(g, block + 1)
        yield Monomial(assign[c] for c in range(len(hs)))


def _neutral_word_values(grading: ElementaryGrading) -> Iterator[PolyMatrix]:
    """Generic values of the neutral-degree words of degree 1 to 5 over the
    support, one per degree tuple and repetition pattern of variables."""
    st = grading.structure
    supp = sorted(grading.support())
    for d in range(1, 6):
        for hs in itertools.product(supp, repeat=d):
            if st.product(hs) == st.identity:
                for mono in _monomials_for_degree_tuple(hs):
                    yield evaluate(Polynomial.from_monomial(mono), grading)


# -- batteries -------------------------------------------------------------------

GENERATOR_GRADINGS = ["zn:2", "zn:3", "zn:4", "z:2", "z:3", "z:4", "mu:2", "mu:3"]


def _family_items(specs: Iterable[str], kind: str) -> List[ItemResult]:
    """One item per family of each grading's basis report: it passes when
    every instance of the family verifies."""
    items: List[ItemResult] = []
    for spec in specs:
        for fam in basis_report(parse_grading_spec(spec), kind)["families"]:
            _item(
                items,
                f"{spec}/{fam['id']}",
                fam["verified"] == fam["instances"],
                f"{fam['verified']}/{fam['instances']} instances",
            )
    return items


def battery_generator_identities(seed: int = 0) -> List[ItemResult]:
    """Every emitted identity-family instance vanishes on generic matrices."""
    return _family_items(GENERATOR_GRADINGS, "identities")


def _consequence_items(specs: Iterable[str], seed: int) -> List[ItemResult]:
    """Random substitution images and two-sided multiples stay identities."""
    items: List[ItemResult] = []
    for spec in specs:
        grading = parse_grading_spec(spec)
        basis = build_basis(grading, "identities")
        by_family: Dict[str, List[GeneratorInstance]] = {}
        for inst in basis.instances:
            by_family.setdefault(inst.family, []).append(inst)
        for family in sorted(by_family, key=lambda f: int(f.strip("()"))):
            insts = by_family[family]
            rng = random.Random((seed, spec, family).__repr__())
            base_ok = all(verify_instance(inst, grading) for inst in insts)
            closure_ok = True
            for _ in range(200):
                poly = rng.choice(insts).poly
                image = _random_consequence(poly, grading, rng)
                if not is_identity(image, grading):
                    closure_ok = False
                    break
            _item(
                items,
                f"{spec}/{family}/consequences",
                base_ok and closure_ok,
                "200 random images",
            )
    return items


def battery_residue_consequences(seed: int = 0) -> List[ItemResult]:
    """Consequences of the residue-grading identity families stay identities."""
    return _consequence_items(["zn:2", "zn:3", "zn:4"], seed)


def battery_integer_consequences(seed: int = 0) -> List[ItemResult]:
    """Consequences of the integer-grading identity families stay identities."""
    return _consequence_items(["z:2", "z:3", "z:4"], seed)


def battery_no_monomial_identities(seed: int = 0) -> List[ItemResult]:
    """Full-support residue gradings admit no monomial identities."""
    items: List[ItemResult] = []
    for spec in ("zn:2", "zn:3"):
        grading = parse_grading_spec(spec)
        found = list(enumerate_monomial_identities(grading, 5))
        _item(items, f"{spec}/degree<=5", not found, f"{len(found)} found")
    return items


def battery_integer_monomial_classification(seed: int = 0) -> List[ItemResult]:
    """Over the integer grading, monomial identities are exactly the words
    with a subword degree outside the support; cross-checked by units."""
    items: List[ItemResult] = []
    for spec in ("z:2", "z:3"):
        grading = parse_grading_spec(spec)
        supp = sorted(grading.support())
        checked = 0
        ok = True
        for d in range(1, 5):
            for hs in itertools.product(supp, repeat=d):
                mono = canonical_monomial(hs)
                poly = Polynomial.from_monomial(mono)
                ident = is_identity(poly, grading)
                closed = classify(mono, grading).support_closed
                oracle = matrix_unit_oracle(poly, grading)
                checked += 1
                if ident != (not closed) or ident != oracle:
                    ok = False
                    break
            if not ok:
                break
        _item(items, f"{spec}/degree<=4", ok, f"{checked} degree tuples")
    return items


def battery_oracle_equivalence(seed: int = 0) -> List[ItemResult]:
    """Generic evaluation and brute-force unit substitution agree on random
    multilinear polynomials."""
    items: List[ItemResult] = []
    specs = ["zn:2", "zn:3", "z:2"]
    rng = random.Random(seed)
    per_spec = [167, 167, 166]
    for spec, count in zip(specs, per_spec):
        grading = parse_grading_spec(spec)
        pool = sorted(grading.support())
        agreements = 0
        ok = True
        for _ in range(count):
            d = rng.randint(1, 4)
            vars = [Var(rng.choice(pool), c + 1) for c in range(d)]
            perms = list(itertools.permutations(vars))
            terms: Dict[Monomial, int] = {}
            for perm in perms:
                coeff = rng.randint(-3, 3)
                if coeff and rng.random() < 0.7:
                    mono = Monomial(perm)
                    terms[mono] = terms.get(mono, 0) + coeff
            poly = Polynomial(terms)
            if is_identity(poly, grading) != matrix_unit_oracle(poly, grading):
                ok = False
                break
            agreements += 1
        _item(items, f"{spec}/oracle-agreement", ok, f"{agreements} polynomials")
    return items


def battery_fast_product(seed: int = 0) -> List[ItemResult]:
    """Closed-form monomial evaluation equals iterated multiplication."""
    items: List[ItemResult] = []
    gradings = [parse_grading_spec(s) for s in GENERATOR_GRADINGS]
    rng = random.Random(seed)
    ok = True
    for _ in range(300):
        grading = rng.choice(gradings)
        mono = Monomial(Var(_random_grade(grading, rng), rng.randint(1, 3)) for _ in range(rng.randint(0, 8)))
        if monomial_product(grading, mono) != naive_monomial_product(grading, mono):
            ok = False
            break
    _item(items, "closed-form-vs-naive", ok, "300 monomials, all gradings")
    return items


def battery_central_residue(seed: int = 0) -> List[ItemResult]:
    """Central families over prime residue gradings verify as expected."""
    items = _family_items(["zp:2", "zp:3", "zp:5"], "central")
    grading = parse_grading_spec("zp:3")
    x1, x2 = Var(1, 1), Var(1, 2)
    cube = Monomial((x1, x2) * 3)
    swapped = Monomial((x2,) * 3 + (x1,) * 3)
    poly = Polynomial({cube: 1, swapped: -1})
    _item(
        items,
        "zp:3/power-collection-congruence",
        is_identity(poly, grading),
        "(x1 x2)^3 - x2^3 x1^3",
    )
    return items


def battery_central_integer(seed: int = 0) -> List[ItemResult]:
    """Central families over the integer grading verify as expected."""
    return _family_items(["z:2", "z:3"], "central")


def battery_complete_sequences(seed: int = 0) -> List[ItemResult]:
    """Complete sequences: definition vs unit chains vs witnesses, and the
    centrality of their cyclic symmetrizations."""
    items: List[ItemResult] = []
    for n in (2, 3):
        grading = parse_grading_spec(f"zn:{n}")
        agree = True
        witness_ok = True
        central_ok = True
        for seq in itertools.product(range(n), repeat=n):
            complete = is_complete_sequence(n, seq)
            if complete != unit_chain_exists(grading, seq):
                agree = False
            witness = complete_sequence_unit_witness(n, seq)
            if complete != (witness is not None):
                agree = False
            if witness is not None:
                degrees = [grading.unit_degree(i, j) for (i, j) in witness]
                chained = all(
                    witness[l][1] == witness[l + 1][0] for l in range(n - 1)
                )
                closes = witness[0][0] == witness[-1][1]
                covers = {u[0] for u in witness} == set(range(1, n + 1))
                if degrees != [g % n for g in seq] or not (chained and closes and covers):
                    witness_ok = False
            if complete:
                vars = [Var(g, l + 1) for l, g in enumerate(seq)]
                sym = GeneratorInstance("(11)", cyclic_symmetrization(vars, grading), {})
                if not verify_instance(sym, grading):
                    central_ok = False
        _item(items, f"zn:{n}/definition-vs-units", agree, f"{n ** n} sequences")
        _item(items, f"zn:{n}/witness-valid", witness_ok)
        _item(items, f"zn:{n}/symmetrization-central", central_ok)
    return items


def _applicable_rewrites(m: Monomial, grading: ElementaryGrading):
    """All swap and reversal applications currently legal on a monomial."""
    swap_rule, rev_rule, _ = _rule_names(grading)
    l = len(m)
    found = []
    for p in range(1, l + 1):
        for q in range(p, l + 1):
            for r in range(q + 1, l + 1):
                try:
                    apply_rule(m, swap_rule, (p, q, r), grading)
                    found.append((swap_rule, (p, q, r)))
                except ValueError:
                    pass
                for s in range(r + 1, l + 1):
                    try:
                        apply_rule(m, rev_rule, (p, q, r, s), grading)
                        found.append((rev_rule, (p, q, r, s)))
                    except ValueError:
                        pass
    return found


def battery_congruence(seed: int = 0) -> List[ItemResult]:
    """Congruence proofs: found when entries match, sound step by step."""
    items: List[ItemResult] = []
    grading = parse_grading_spec("zn:3")
    rng = random.Random(seed)
    pairs: List[Tuple[Monomial, Monomial]] = []
    # scrambles: apply random legal rewrites, so a shared entry is guaranteed
    while len(pairs) < 70:
        d = rng.randint(3, 6)
        m = Monomial(Var(rng.randrange(3), rng.randint(1, 2)) for _ in range(d))
        cur = m
        for _ in range(rng.randint(1, 4)):
            apps = _applicable_rewrites(cur, grading)
            if not apps:
                break
            rule, window = rng.choice(apps)
            cur = apply_rule(cur, rule, window, grading)
        if cur != m:
            pairs.append((m, cur))
    # shuffles: keep permutations that happen to share an entry
    attempts = 0
    while len(pairs) < 100 and attempts < 5000:
        attempts += 1
        d = rng.randint(3, 6)
        m = Monomial(Var(rng.randrange(3), rng.randint(1, 2)) for _ in range(d))
        perm = list(m.vars)
        rng.shuffle(perm)
        n_mono = Monomial(perm)
        if n_mono != m and entry_match(m, n_mono, grading) is not None:
            pairs.append((m, n_mono))
    proofs_ok = True
    sound_ok = True
    for m, n_mono in pairs:
        proof = find_congruence(m, n_mono, grading)
        if proof is None or replay(proof, grading) != n_mono:
            proofs_ok = False
            break
        reference = monomial_product(grading, m)
        cur = m
        for step in proof.steps:
            cur = apply_rule(cur, step.rule, step.window, grading)
            if monomial_product(grading, cur) != reference:
                sound_ok = False
                break
        if not sound_ok:
            break
    _item(items, "zn:3/proofs-found-and-replayed", proofs_ok, f"{len(pairs)} pairs")
    _item(items, "zn:3/steps-preserve-evaluation", sound_ok)
    # absence: permutations without a shared entry yield no proof
    absent_ok = True
    none_seen = 0
    for _ in range(300):
        d = rng.randint(2, 5)
        m = Monomial(Var(rng.randrange(3), rng.randint(1, 2)) for _ in range(d))
        perm = list(m.vars)
        rng.shuffle(perm)
        n_mono = Monomial(perm)
        if n_mono == m:
            continue
        proof = find_congruence(m, n_mono, grading)
        # expected from the unit degrees alone, apart from the search and the
        # row maps find_congruence reads: a start row where both walks end on
        # one row and visit every variable at the same rows
        p1 = unit_walks(grading, [v.grade for v in m.vars])
        p2 = unit_walks(grading, [v.grade for v in n_mono.vars])
        match = any(
            p1[k][-1] == p2[k][-1] and Counter(zip(m.vars, p1[k])) == Counter(zip(n_mono.vars, p2[k]))
            for k in p1.keys() & p2.keys()
        )
        if (proof is not None) != match:
            absent_ok = False
            break
        if proof is None:
            none_seen += 1
    _item(items, "zn:3/proof-iff-entry-match", absent_ok, f"{none_seen} absent cases")
    return items


def battery_twin_blocks(seed: int = 0) -> List[ItemResult]:
    """Long neutral-free support-closed multilinear words contain twin
    neutral blocks; the length thresholds take their known values."""
    items: List[ItemResult] = []
    thresholds = [twin_block_threshold(s) for s in (1, 2, 3)]
    _item(items, "threshold-values", thresholds == [2, 21, 228], str(thresholds))
    rng = random.Random(seed)
    grading2 = parse_grading_spec("zn:2")
    ok2 = True
    for _ in range(100):
        d = rng.randint(21, 25)
        mono = Monomial(Var(1, c + 1) for c in range(d))
        cls = classify(mono, grading2)
        if not (cls.support_closed and cls.has_twin_neutral_blocks):
            ok2 = False
            break
    _item(items, "zn:2/support-2-long-words", ok2, "100 words, degree >= 21")
    grading3 = parse_grading_spec("z:2")
    ok3 = True
    for _ in range(100):
        d = rng.randint(228, 230)
        sign = rng.choice((1, -1))
        vars = []
        for c in range(d):
            vars.append(Var(sign if c % 2 == 0 else -sign, c + 1))
        mono = Monomial(vars)
        cls = classify(mono, grading3)
        if not (cls.support_closed and cls.has_twin_neutral_blocks):
            ok3 = False
            break
    _item(items, "z:2/support-3-long-words", ok3, "100 words, degree >= 228")
    return items


def battery_distinct_diagonal(seed: int = 0) -> List[ItemResult]:
    """Diagonal entries of non-central neutral words are pairwise distinct
    over residue gradings."""
    items: List[ItemResult] = []
    for spec in ("zn:2", "zn:3"):
        grading = parse_grading_spec(spec)
        n = grading.n
        ok = True
        checked = 0
        for value in _neutral_word_values(grading):
            if value.is_scalar:
                continue
            checked += 1
            diag = [value.entry(k, k) for k in range(1, n + 1)]
            if any(p.is_zero for p in diag):
                ok = False
                break
            if len({tuple(sorted(p.terms.items())) for p in diag}) != n:
                ok = False
                break
        _item(items, f"{spec}/distinct-diagonal", ok, f"{checked} non-central words")
    return items


def battery_distinct_entries(seed: int = 0) -> List[ItemResult]:
    """All nonzero entries of neutral words are pairwise distinct over the
    integer grading."""
    items: List[ItemResult] = []
    for spec in ("z:2", "z:3"):
        grading = parse_grading_spec(spec)
        ok = True
        checked = 0
        for value in _neutral_word_values(grading):
            entries = value.cells.values()
            if not entries:
                continue
            checked += 1
            keys = {tuple(sorted(p.terms.items())) for p in entries}
            if len(keys) != len(entries):
                ok = False
                break
        _item(items, f"{spec}/distinct-entries", ok, f"{checked} nonzero words")
    return items


def battery_positional_basis(seed: int = 0) -> List[ItemResult]:
    """Positional-grading families verify; its monomial identities are
    exactly the zero-degree words."""
    items: List[ItemResult] = []
    for spec in ("mu:2", "mu:3"):
        families = basis_report(parse_grading_spec(spec), "identities")["families"]
        verified = sum(fam["verified"] for fam in families)
        instances = sum(fam["instances"] for fam in families)
        _item(items, f"{spec}/families", verified == instances, f"{verified}/{instances} instances")
    grading = parse_grading_spec("mu:2")
    found = list(enumerate_monomial_identities(grading, 3))
    expected_ok = all(
        m.degree(grading) == MU_ZERO
        and matrix_unit_oracle(Polynomial.from_monomial(m), grading)
        for m in found
    )
    supp = sorted(grading.support())
    complete_ok = True
    for d in range(1, 4):
        for hs in itertools.product(supp, repeat=d):
            mono = canonical_monomial(hs)
            ident = mono.degree(grading) == MU_ZERO
            if ident != (mono in found):
                complete_ok = False
    _item(
        items,
        "mu:2/monomial-identities",
        expected_ok and complete_ok,
        f"{len(found)} identities, degree <= 3",
    )
    return items


#: each suite is a tuple of batteries; run_suite joins their items in order
SUITES: Dict[str, Tuple[Callable[[int], List[ItemResult]], ...]] = {
    "lemma-luis1": (battery_generator_identities,),
    "vasilovsky-zn": (battery_residue_consequences, battery_no_monomial_identities),
    "vasilovsky-z": (battery_integer_consequences, battery_integer_monomial_classification),
    "mun-basis": (battery_positional_basis,),
    "central-zp": (battery_central_residue, battery_distinct_diagonal),
    "central-z": (battery_central_integer, battery_distinct_entries),
    "oracle-equivalence": (battery_oracle_equivalence, battery_fast_product),
    "lambda-type2": (battery_twin_blocks,),
    "complete-seq": (battery_complete_sequences,),
    "congruence": (battery_congruence,),
}


def run_suite(name: str, seed: int = 0) -> List[ItemResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return [item for battery in SUITES[name] for item in battery(seed)]
