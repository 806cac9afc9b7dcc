"""Seeded job generators for the four benchmark workloads.

A job is one argv for ``gradedpi.cli.main`` plus the outcome it must produce.
Every expected outcome follows from how the input was built, never from the
code under test:

* a graded-substitution consequence of an identity family is an identity;
* s_k on neutral variables is an identity (the neutral component is diagonal);
* adding a monomial with a new variable multiset and a surviving row walk
  gives a non-identity;
* a grade (or subword degree) outside the support kills a word;
* a substitution image of a central polynomial (a power monomial or the
  cyclic symmetrization of a complete sequence) is central;
* the cyclic symmetrization of a sum-zero integer lift of a complete sequence
  (family (15) on z:n) is properly central exactly when a row walk survives
  some rotation of its word, and vanishes otherwise;
* a monomial rewritten by valid commutation rules is congruent to the
  original, and a killed monomial is congruent to nothing.

Jobs come in rounds. Every round of a workload has the same job classes; the
seed and the round number choose variables, walks, substitutions and labels,
and the round number alone sets the size of the wide gradings in ``check``.
So the cost of a run hardly depends on the seed. What repeats between rounds
is listed in README.md.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SUITE_NAMES = (
    "central-z",
    "central-zp",
    "complete-seq",
    "congruence",
    "lambda-type2",
    "lemma-luis1",
    "mun-basis",
    "oracle-equivalence",
    "vasilovsky-z",
    "vasilovsky-zn",
)


@dataclass
class Job:
    argv: List[str]
    label: str
    expect: dict


@dataclass
class Round:
    jobs: List[Job]
    files: Dict[str, str] = field(default_factory=dict)  # Cayley tables to write first


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- grading models ------------------------------------------------------------
#
# Each model knows the degree of the matrix unit e_ij and how a row moves under
# a letter of a given grade, written independently of gradedpi.grading.


class CyclicModel:
    """zn:N / zp:N: row i has grade i mod N, so e_ij has degree j - i mod N."""

    def __init__(self, n: int, prefix: str = "zn"):
        self.n = n
        self.spec = f"{prefix}:{n}"
        self.neutral = 0

    def unit(self, i: int, j: int):
        return (j - i) % self.n

    def next_row(self, row: int, g) -> Optional[int]:
        return (row - 1 + g) % self.n + 1

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def text(self, g) -> str:
        return str(g)


class IntModel:
    """z:N: row i has grade i, so e_ij has degree j - i; |degree| >= N is outside."""

    def __init__(self, n: int):
        self.n = n
        self.spec = f"z:{n}"
        self.neutral = 0

    def unit(self, i: int, j: int):
        return j - i

    def next_row(self, row: int, g) -> Optional[int]:
        nxt = row + g
        return nxt if 1 <= nxt <= self.n else None

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def text(self, g) -> str:
        return str(g)


class MuModel:
    """mu:N: e_ij has degree (i, j); the grade 0 is the absorbing zero."""

    ZERO = 0

    def __init__(self, n: int):
        self.n = n
        self.spec = f"mu:{n}"
        self.neutral = None

    def unit(self, i: int, j: int):
        return (i, j)

    def next_row(self, row: int, g) -> Optional[int]:
        if g == self.ZERO or g[0] != row:
            return None
        return g[1]

    def text(self, g) -> str:
        return "0" if g == self.ZERO else f"({g[0]},{g[1]})"


class Group:
    """A finite group from permutation composition (or a product of Z_2s)."""

    def __init__(self, elements: Sequence[tuple], compose):
        self.elements = list(elements)
        index = {e: k for k, e in enumerate(self.elements)}
        self.table = [[index[compose(a, b)] for b in self.elements] for a in self.elements]
        self.identity = next(
            e for e in range(len(self.elements))
            if all(self.table[e][g] == g for g in range(len(self.elements)))
        )
        self.inverse = [
            next(h for h in range(len(self.elements)) if self.table[g][h] == self.identity)
            for g in range(len(self.elements))
        ]


def symmetric_group(k: int) -> Group:
    perms = sorted(itertools.permutations(range(k)))
    return Group(perms, lambda p, q: tuple(p[q[i]] for i in range(k)))


def klein_group() -> Group:
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return Group(elems, lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2))


GROUPS = {"S3": symmetric_group(3), "S4": symmetric_group(4), "K4": klein_group()}


class TableModel:
    """group:<file>:<g1,...,gn> over a relabelled Cayley table file.

    Grades are element numbers of the benchmark's own group; the text form is
    the element's position in the file header, which the round shuffles.
    """

    def __init__(self, group_name: str, rows: Sequence[int], file_name: str, rng: random.Random):
        self.group = GROUPS[group_name]
        m = len(self.group.elements)
        order = list(range(m))
        rng.shuffle(order)
        self.position = {e: p for p, e in enumerate(order)}
        self.names = {e: f"{group_name.lower()}e{e}" for e in range(m)}
        self.rows = tuple(rows)
        self.n = len(rows)
        self.neutral = self.group.identity
        self.file_name = file_name
        self.spec = f"group:{file_name}:" + ",".join(self.names[g] for g in self.rows)
        header = " ".join(self.names[e] for e in order)
        body = [
            " ".join(self.names[self.group.table[a][b]] for b in order) for a in order
        ]
        self.file_text = "\n".join([header] + body) + "\n"

    def unit(self, i: int, j: int):
        return self.mul(self.inv(self.rows[i - 1]), self.rows[j - 1])

    def next_row(self, row: int, g) -> Optional[int]:
        target = self.mul(self.rows[row - 1], g)
        return self.rows.index(target) + 1 if target in self.rows else None

    def mul(self, a, b):
        return self.group.table[a][b]

    def inv(self, a):
        return self.group.inverse[a]

    def text(self, g) -> str:
        return str(self.position[g])


def walk(model, grades: Sequence, start: int) -> Optional[List[int]]:
    """Rows visited by a word from a start row, or None when the walk dies."""
    rows = [start]
    for g in grades:
        nxt = model.next_row(rows[-1], g)
        if nxt is None:
            return None
        rows.append(nxt)
    return rows


def survives(model, grades: Sequence) -> bool:
    return any(walk(model, grades, k) is not None for k in range(1, model.n + 1))


def random_walk_word(model, length: int, rng: random.Random) -> Tuple[List, List[int]]:
    """Grades of a word along a random row walk, and the rows it visits."""
    rows = [rng.randint(1, model.n)]
    for _ in range(length):
        rows.append(rng.randint(1, model.n))
    return [model.unit(rows[t], rows[t + 1]) for t in range(length)], rows


# -- free polynomials, benchmark side ----------------------------------------------
#
# A word is a tuple of letters (grade, index); a polynomial maps words to
# nonzero integer coefficients.


def word_text(model, word) -> str:
    return "*".join(f"x[{model.text(g)},{i}]" for g, i in word)


def poly_text(model, poly: Dict[tuple, int], rng: Optional[random.Random] = None) -> str:
    items = list(poly.items())
    if rng is not None:
        rng.shuffle(items)
    parts = []
    for word, c in items:
        body = word_text(model, word) if word else "1"
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def add_term(poly: Dict[tuple, int], word: tuple, c: int):
    nc = poly.get(word, 0) + c
    if nc:
        poly[word] = nc
    else:
        poly.pop(word, None)


def substitute(poly: Dict[tuple, int], images: Dict[tuple, List[tuple]]) -> Dict[tuple, int]:
    """Image under letter -> sum of words; unmapped letters stay fixed."""
    out: Dict[tuple, int] = {}
    for word, c in poly.items():
        choices = [images.get(letter, [(letter,)]) for letter in word]
        for combo in itertools.product(*choices):
            add_term(out, tuple(itertools.chain.from_iterable(combo)), c)
    return out


def random_word_of_degree(model, target, rng: random.Random, base: int, length: int) -> tuple:
    """A word of the given degree over a group-kind model."""
    grades = [model.unit(rng.randint(1, model.n), rng.randint(1, model.n)) for _ in range(length - 1)]
    acc = model.neutral
    for g in grades:
        acc = model.mul(acc, g)
    grades.append(model.mul(model.inv(acc), target))
    return tuple((g, base + rng.randint(0, 3)) for g in grades)


def random_mu_word(model: MuModel, target, rng: random.Random, base: int, length: int) -> tuple:
    """A word of degree (i, j) along a chain of positions, for the mu model."""
    i, j = target
    rows = [i] + [rng.randint(1, model.n) for _ in range(length - 1)] + [j]
    return tuple(((rows[t], rows[t + 1]), base + rng.randint(0, 3)) for t in range(length))


def images_for(model, letters: Sequence[tuple], counts: Sequence[int], rng: random.Random) -> Dict[tuple, List[tuple]]:
    """Each letter maps to a sum of distinct words of its own degree."""
    images = {}
    for v, (letter, q) in enumerate(zip(letters, counts)):
        grade = letter[0]
        words = set()
        while len(words) < q:
            length = rng.randint(1, 3)
            base = 10 * (v + 1) + 100 * len(words)
            if isinstance(model, MuModel):
                words.add(random_mu_word(model, grade, rng, base, length))
            else:
                words.add(random_word_of_degree(model, grade, rng, base, length))
        images[letter] = sorted(words)
    return images


def commutator(a, b) -> Dict[tuple, int]:
    return {(a, b): 1, (b, a): -1}


def reversal(a, b, c) -> Dict[tuple, int]:
    return {(a, b, c): 1, (c, b, a): -1}


def flank(poly: Dict[tuple, int], left: tuple, right: tuple) -> Dict[tuple, int]:
    return {left + w + right: c for w, c in poly.items()}


def standard_polynomial(k: int, model, indices: Sequence[int]) -> Dict[tuple, int]:
    """s_k on neutral variables x[e, indices[0]], ..., x[e, indices[k-1]]."""
    e = model.neutral
    out = {}
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        out[tuple((e, indices[p]) for p in perm)] = -1 if inversions % 2 else 1
    return out


def complete_sequence(p: int, rng: random.Random) -> List[int]:
    """A complete residue sequence: partial sums run over Z_p minus 0, then 0."""
    partial = list(range(1, p))
    rng.shuffle(partial)
    partial = [0] + partial + [0]
    return [(partial[t + 1] - partial[t]) % p for t in range(p)]


def is_complete(n: int, seq: Sequence[int]) -> bool:
    """Partial sums mod n run over Z_n minus 0, then end on 0."""
    sums = [s % n for s in itertools.accumulate(seq)]
    return sums[-1] == 0 and sorted(sums[:-1]) == list(range(1, n))


@functools.lru_cache(maxsize=None)
def integer_lifts(n: int) -> Dict[tuple, bool]:
    """The lifts of complete sequences that family (15) on z:n is drawn from:
    degrees in (-n, n), integer sum 0. Each maps to whether its cyclic
    symmetrization is nonzero, that is, whether some rotation of the word has
    partial sums spanning at most n - 1, so that a row walk survives it."""
    out = {}
    for seq in itertools.product(range(-(n - 1), n), repeat=n):
        if sum(seq) == 0 and is_complete(n, seq):
            out[seq] = any(
                max(p) - min(p) <= n - 1
                for p in ([0] + list(itertools.accumulate(seq[r:] + seq[:r])) for r in range(n))
            )
    return out


def cyclic_symmetrization(letters: Sequence[tuple]) -> Dict[tuple, int]:
    out: Dict[tuple, int] = {}
    letters = tuple(letters)
    for s in range(len(letters)):
        add_term(out, letters[s:] + letters[:s], 1)
    return out


# -- workload: check ----------------------------------------------------------------


def _check_job(model, polys: List[str], verdicts: List[bool], label: str, central=False) -> Job:
    argv = ["check-central" if central else "check-identity", "--grading", model.spec]
    for text in polys:
        argv += ["--poly", text]
    argv += ["--format", "json"]
    return Job(argv, label, {"type": "check", "verdicts": verdicts})


def _walk_monomial(model, length: int, rng: random.Random, base: int) -> tuple:
    grades, _ = random_walk_word(model, length, rng)
    return tuple((g, base + t) for t, g in enumerate(grades))


def _identity_consequence(model, family: str, target_terms: int, rng: random.Random):
    """A graded-substitution image of a generator identity, flanked by words."""
    if isinstance(model, MuModel):
        i, j = rng.sample(range(1, model.n + 1), 2)
        if family == "(5)":
            gen, letters = commutator(((i, i), 1), ((j, j), 2)), [((i, i), 1), ((j, j), 2)]
        else:  # (6)
            a, b, c = ((i, j), 1), ((j, i), 2), ((i, j), 3)
            gen, letters = reversal(a, b, c), [a, b, c]
    elif family == "(1)":
        a, b = (model.neutral, 1), (model.neutral, 2)
        gen, letters = commutator(a, b), [a, b]
    elif family == "(2)":
        g = rng.choice([model.unit(i, j) for i in range(1, model.n + 1) for j in range(1, model.n + 1) if i != j])
        a, b, c = (g, 1), (model.inv(g), 2), (g, 3)
        gen, letters = reversal(a, b, c), [a, b, c]
    else:  # (3): a degree outside the support of z:N
        a = (model.n + rng.randint(0, 2), 1)
        gen, letters = {(a,): 1}, [a]
    per_letter = max(1, round((target_terms / len(gen)) ** (1 / len(letters))))
    counts = [per_letter] * len(letters)
    poly = substitute(gen, images_for(model, letters, counts, rng))
    if isinstance(model, MuModel):
        left = random_mu_word(model, (rng.randint(1, model.n), i), rng, 500, 2)
        right = random_mu_word(model, (j, rng.randint(1, model.n)), rng, 600, 2)
    else:
        left = random_word_of_degree(model, model.unit(1, rng.randint(1, model.n)), rng, 500, 2)
        right = random_word_of_degree(model, model.unit(1, rng.randint(1, model.n)), rng, 600, 2)
    return flank(poly, left, right)


def _central_consequence(model, family: str, per_letter: int, rng: random.Random):
    """A substitution image of a central generator: a power or a symmetrization."""
    if family == "(10)":  # x^p with x of nonzero residue degree, p = N prime
        a = (rng.randint(1, model.n - 1), 1)
        gen, letters = {(a,) * model.n: 1}, [a]
    elif family == "(11)":
        seq = complete_sequence(model.n, rng)
        letters = [(g, t + 1) for t, g in enumerate(seq)]
        gen = cyclic_symmetrization(letters)
    else:  # (15) on z:3, the lifts (1, 1, -2) and (-1, -1, 2) of complete sequences
        sign = rng.choice((1, -1))
        letters = [(sign, 1), (sign, 2), (-2 * sign, 3)]
        gen = cyclic_symmetrization(letters)
    return substitute(gen, images_for(model, letters, [per_letter] * len(letters), rng))


def _malformed_job(rng: random.Random, k: int, label: str) -> Job:
    n = rng.randint(2, 9)
    i = rng.randint(1, 10**6)
    specs = [f"zn:{n}x", f"zp:{n * 2 + 2}", f"q:{n}", "zn:0", f"z{n}"]
    polys = [f"x[0,{i}]*", f"x[0,{i}", f"x[0,{i}]+*x[0,1]", f"x[(1,2),{i}]", f"{i}*"]
    if k % 2 == 0:
        argv = ["check-identity", "--grading", rng.choice(specs), "--poly", f"x[0,{i}]"]
    else:
        argv = ["check-identity", "--grading", f"zn:{n}", "--poly", rng.choice(polys)]
    return Job(argv + ["--format", "json"], label, {"type": "usage-error"})


#: wide gradings shrink by a different offset in each round, so none repeats
#: within the first WIDE_CYCLE rounds of a run; the stride 7 (prime to 16)
#: spreads the offsets, so a partial cycle costs about as much as a whole one
WIDE_CYCLE = 16


def wide_size(n: int, index: int) -> int:
    return n - (7 * index) % WIDE_CYCLE


def check_round(seed: int, index: int) -> Round:
    rng = round_rng("check", seed, index)
    s3 = TableModel("S3", (0, 1, 3), f"s3_{index}.tbl", rng)
    deep = [CyclicModel(3), IntModel(3), s3]
    jobs: List[Job] = []
    base = 1 + 10 * index

    def indices(k):
        return rng.sample(range(base, base + 10 + k), k)

    # deep: s_5 and s_6 everywhere, one s_7 per round (rotating grading)
    for model in deep:
        for k in (5, 6):
            text = poly_text(model, standard_polynomial(k, model, indices(k)), rng)
            jobs.append(_check_job(model, [text], [True], f"s{k}/{model.spec}", central=(k == 6)))
    model = deep[index % 3]
    jobs.append(_check_job(model, [poly_text(model, standard_polynomial(7, model, indices(7)), rng)], [True], f"s7/{model.spec}"))

    # deep: consequences of identity families, then the same plus one surviving monomial
    cases = [
        (deep[0], "(1)", 60), (deep[0], "(2)", 400), (deep[1], "(2)", 150),
        (deep[1], "(3)", 250), (s3, "(1)", 1000), (s3, "(2)", 600),
        (MuModel(3), "(5)", 100), (MuModel(3), "(6)", 300),
    ]
    for t, (model, family, size) in enumerate(cases):
        poly = _identity_consequence(model, family, size, rng)
        if t % 2:
            add_term(poly, _walk_monomial(model, rng.randint(3, 6), rng, 900), 1)
            jobs.append(_check_job(model, [poly_text(model, poly, rng)], [False], f"{family}+walk/{model.spec}"))
        else:
            jobs.append(_check_job(model, [poly_text(model, poly, rng)], [True], f"{family}/{model.spec}"))

    # deep: central consequences
    for model, family, per_letter in ((CyclicModel(3, "zp"), "(10)", 6), (CyclicModel(5, "zp"), "(11)", 2), (IntModel(3), "(15)", 5)):
        poly = _central_consequence(model, family, per_letter, rng)
        jobs.append(_check_job(model, [poly_text(model, poly, rng)], [True], f"{family}/{model.spec}", central=True))

    # wide: long words on large gradings
    for n, shape in ((64, "walk"), (96, "walk"), (128, "walk"), (128, "reversal")):
        model = CyclicModel(wide_size(n, index))
        n = model.n
        if shape == "walk":
            text = word_text(model, _walk_monomial(model, n, rng, 1))
            jobs.append(_check_job(model, [text], [False], f"walk/{model.spec}"))
        else:
            g = rng.randint(1, n - 1)
            gen = reversal((g, 1), (model.inv(g), 2), (g, 3))
            left = _walk_monomial(model, n // 2, rng, 10)
            right = _walk_monomial(model, n // 2, rng, 300)
            text = poly_text(model, flank(gen, left, right), rng)
            jobs.append(_check_job(model, [text], [True], f"reversal/{model.spec}"))
    for model, length in ((IntModel(wide_size(64, index)), 64), (IntModel(wide_size(96, index)), 96),
                          (IntModel(wide_size(128, index)), 128), (MuModel(wide_size(32, index)), 96),
                          (MuModel(wide_size(64, index)), 128)):
        word = list(_walk_monomial(model, length, rng, 1))
        jobs.append(_check_job(model, [word_text(model, word)], [False], f"walk/{model.spec}"))
        kill = MuModel.ZERO if isinstance(model, MuModel) else model.n + rng.randint(0, 5)
        word[rng.randrange(length)] = (kill, 999)
        jobs.append(_check_job(model, [word_text(model, word)], [True], f"killed/{model.spec}"))

    for k in range(3):
        jobs.append(_malformed_job(rng, index + k, "malformed"))
    rng.shuffle(jobs)
    return Round(jobs, {s3.file_name: s3.file_text})


# -- workload: basis ------------------------------------------------------------------

#: (class id, grading, kind, cutoff); table gradings name a group and its row elements
BASIS_CLASSES = [
    ("central/zp:2", "zp:2", "central", None),
    ("central/zp:3", "zp:3", "central", None),
    ("central/zp:5", "zp:5", "central", None),
    ("central/z:2", "z:2", "central", None),
    ("central/z:3", "z:3", "central", None),
    ("central/z:4", "z:4", "central", None),
    ("central/z:5", "z:5", "central", None),
    ("identities/zn:4", "zn:4", "identities", None),
    ("identities/zn:9", "zn:9", "identities", None),
    ("identities/z:4", "z:4", "identities", None),
    ("identities/z:9", "z:9", "identities", None),
    ("identities/mu:2", "mu:2", "identities", None),
    ("identities/mu:6", "mu:6", "identities", None),
    ("identities/mu:10", "mu:10", "identities", None),
    ("identities/S3[0,1,3]/3", ("S3", (0, 1, 3)), "identities", 3),
    ("identities/S3[0,1,3]/4", ("S3", (0, 1, 3)), "identities", 4),
    ("identities/S3[0,1,3]/5", ("S3", (0, 1, 3)), "identities", 5),
    ("identities/S3[0,1]/6", ("S3", (0, 1)), "identities", 6),
    ("identities/S4[0,1,3]/3", ("S4", (0, 1, 3)), "identities", 3),
    ("identities/S4[0,1,3]/4", ("S4", (0, 1, 3)), "identities", 4),
    ("identities/S4[0,7]/6", ("S4", (0, 7)), "identities", 6),
    ("identities/S4[0,1,3,7]/3", ("S4", (0, 1, 3, 7)), "identities", 3),
    ("identities/S4[0,1,3,7]/4", ("S4", (0, 1, 3, 7)), "identities", 4),
    ("identities/K4[0,1]/6", ("K4", (0, 1)), "identities", 6),
    ("identities/K4[0,1,2]/4", ("K4", (0, 1, 2)), "identities", 4),
    ("identities/K4[0,1,2]/5", ("K4", (0, 1, 2)), "identities", 5),
    ("identities/K4[0,1,2]/6", ("K4", (0, 1, 2)), "identities", 6),
]


def basis_round(seed: int, index: int, expected_counts: Optional[dict]) -> Round:
    """One job per class. Table gradings get a freshly relabelled file each round.
    The other gradings have one fixed spec and no cutoff (their families do not
    use it), so their argv is the same in every round."""
    rng = round_rng("basis", seed, index)
    jobs, files = [], {}
    for k, (cls, grading, kind, cutoff) in enumerate(BASIS_CLASSES):
        spec = grading
        if isinstance(grading, tuple):
            group, rows = grading
            model = TableModel(group, rows, f"{group.lower()}_{index}_{k}.tbl", rng)
            files[model.file_name] = model.file_text
            spec = model.spec
        argv = ["basis", "--grading", spec, "--kind", kind]
        if cutoff is not None:
            argv += ["--cutoff", str(cutoff)]
        argv += ["--format", "json"]
        # classes whose report rejects instances have no recorded counts
        counts = None if expected_counts is None else expected_counts.get(cls)
        expect = {"type": "basis", "class": cls, "counts": counts}
        if kind == "central" and spec.startswith("z:"):
            expect["lifts"] = int(spec[2:])
        jobs.append(Job(argv, cls, expect))
    rng.shuffle(jobs)
    return Round(jobs, files)


# -- workload: congruence ----------------------------------------------------------------


def _swap(word, rows, rng) -> bool:
    """commute-e / mu-commute: swap adjacent blocks that are loops at one row."""
    L = len(word)
    j = rng.randint(1, L - 1)
    before = [i for i in range(j) if rows[i] == rows[j]]
    after = [k for k in range(j + 1, L + 1) if rows[k] == rows[j]]
    if not before or not after:
        return False
    i, k = rng.choice(before), rng.choice(after)
    word[i:k] = word[j:k] + word[i:j]
    return True


def _reverse(word, rows, rng) -> bool:
    """reverse-conjugate / mu-reverse: blocks a b c -> c b a where a and c go
    from row u to row v != u and b goes back from v to u."""
    L = len(word)
    p, q = sorted(rng.sample(range(L + 1), 2))
    if rows[p] == rows[q]:
        return False
    rs = [r for r in range(q + 1, L) if rows[r] == rows[p]]
    if not rs:
        return False
    r = rng.choice(rs)
    ss = [s for s in range(r + 1, L + 1) if rows[s] == rows[q]]
    if not ss:
        return False
    s = rng.choice(ss)
    word[p:s] = word[r:s] + word[q:r] + word[p:q]
    return True


def congruent_pair(model, length: int, rng: random.Random) -> Tuple[list, list]:
    """A walk word and its image under a seeded chain of valid rewrites."""
    grades, rows = random_walk_word(model, length, rng)
    src = [(g, 1 + rng.randrange(4)) for g in grades]
    dst = list(src)
    moves = 0
    while moves < length // 2 or dst == src:
        cur = walk(model, [g for g, _ in dst], rows[0])
        if (_swap if rng.random() < 0.5 else _reverse)(dst, cur, rng):
            moves += 1
    end = walk(model, [g for g, _ in dst], rows[0])
    if end is None or end[-1] != rows[-1]:
        raise RuntimeError("a rewrite left the row walk")
    return src, dst


def killed_pair(model, length: int, rng: random.Random) -> Tuple[list, list]:
    """A dead word and a surviving rearrangement of the same letters."""
    while True:
        grades, _ = random_walk_word(model, length, rng)
        alive = [(g, 1 + rng.randrange(4)) for g in grades]
        dead = sorted(alive, key=lambda v: (str(v[0]), v[1]))
        if not survives(model, [g for g, _ in dead]):
            return dead, alive


def congruence_round(seed: int, index: int) -> Round:
    rng = round_rng("congruence", seed, index)
    s3 = TableModel("S3", (0, 1, 3), f"s3_{index}.tbl", rng)
    models = [CyclicModel(3), CyclicModel(5), IntModel(3), MuModel(3), s3]
    jobs = []

    def job(model, m, n, congruent, label):
        argv = ["congruence", "--grading", model.spec, "--poly", word_text(model, m),
                "--poly", word_text(model, n), "--format", "json"]
        expect = {"type": "congruence", "congruent": congruent, "spec": model.spec,
                  "start": argv[4], "end": argv[6]}
        return Job(argv, label, expect)

    for model in models:
        for length in (24, 96, 192, 384):
            m, n = congruent_pair(model, length, rng)
            jobs.append(job(model, m, n, True, f"{length}/{model.spec}"))
    for model, length in ((models[2], 48), (models[2], 96), (models[2], 192), (models[3], 48), (models[3], 192)):
        m, n = killed_pair(model, length, rng)
        jobs.append(job(model, m, n, False, f"killed/{model.spec}"))
    rng.shuffle(jobs)
    return Round(jobs, {s3.file_name: s3.file_text})


# -- workload: verify -------------------------------------------------------------------------


#: extra runs per round, so that the 50th and 90th percentile ranks fall
#: inside a group of similar suites rather than between two
VERIFY_EXTRA = ("central-z", "congruence", "oracle-equivalence", "lambda-type2", "lambda-type2")


def verify_round(seed: int, index: int) -> Round:
    """Every suite once plus VERIFY_EXTRA, each on its own seed."""
    names = list(SUITE_NAMES) + list(VERIFY_EXTRA)
    jobs = []
    for k, name in enumerate(names):
        suite_seed = seed * 100_000 + index * len(names) + k
        argv = ["verify", "--suite", name, "--seed", str(suite_seed), "--format", "json"]
        jobs.append(Job(argv, name, {"type": "verify"}))
    round_rng("verify", seed, index).shuffle(jobs)
    return Round(jobs)


def make_round(workload: str, seed: int, index: int, expected_counts: Optional[dict] = None) -> Round:
    if workload == "check":
        return check_round(seed, index)
    if workload == "basis":
        return basis_round(seed, index, expected_counts)
    if workload == "congruence":
        return congruence_round(seed, index)
    if workload == "verify":
        return verify_round(seed, index)
    raise ValueError(f"unknown workload {workload!r}")
