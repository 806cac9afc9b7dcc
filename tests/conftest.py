"""Shared inputs: Cayley tables of the symmetric groups and the Klein
four-group, built independently of the library's group code, and fixtures
for an S3 grading, the Klein table file and one grading of every kind."""

import itertools

import pytest

from gradedpi.grading import MU_ZERO, CyclicGroup, ElementaryGrading, IntegerGroup, TableGroup, parse_grading_spec


def permutation_group_table(k):
    """Cayley table of the symmetric group on k points, built from actual
    permutation composition so it is independent of the library's group code."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    names = ["".join(str(x) for x in p) for p in perms]

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(k))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return names, table


KLEIN_TABLE = "e a b c\n" "e a b c\n" "a e c b\n" "b c e a\n" "c b a e\n"


def klein_table():
    """Names and Cayley table of the Klein four-group, read from ``KLEIN_TABLE``."""
    names, *rows = [line.split() for line in KLEIN_TABLE.splitlines()]
    index = {name: i for i, name in enumerate(names)}
    return names, [[index[x] for x in row] for row in rows]


@pytest.fixture(scope="session")
def s3_grading():
    """M_3 graded by S_3 through three distinct permutations."""
    names, table = permutation_group_table(3)
    structure = TableGroup(names, table)
    return ElementaryGrading(structure, (0, 1, 3))


@pytest.fixture(scope="session")
def klein_file(tmp_path_factory):
    """The Klein four-group table file, shared by a whole session."""
    path = tmp_path_factory.mktemp("klein") / "klein.txt"
    path.write_text(KLEIN_TABLE)
    return str(path)


@pytest.fixture(scope="session")
def every_kind(s3_grading):
    """(grading, grade pool) of one grading per kind, with grades outside the
    support where the kind has them, so that killed words occur; rows out of
    their natural order, integer rows with gaps or away from 0, and group
    tuples that are and are not cosets of a subgroup."""
    mu3 = [MU_ZERO] + [(i, j) for i in range(1, 4) for j in range(1, 4)]
    s3, klein = TableGroup(*permutation_group_table(3)), TableGroup(*klein_table())
    return {
        "zn:3": (parse_grading_spec("zn:3"), list(range(3))),
        "zn:5": (parse_grading_spec("zn:5"), list(range(5))),
        "zn:5 permuted": (ElementaryGrading(CyclicGroup(5), (3, 0, 4, 1, 2)), list(range(5))),
        "z:3": (parse_grading_spec("z:3"), list(range(-4, 5))),
        "z shifted": (ElementaryGrading(IntegerGroup(), (5, 6, 7, 8)), list(range(-5, 6))),
        "z gaps": (ElementaryGrading(IntegerGroup(), (1, 2, 4)), list(range(-4, 5))),
        "mu:3": (parse_grading_spec("mu:3"), mu3),
        "s3": (s3_grading, list(range(6))),
        "S3 A3": (ElementaryGrading(s3, (3, 0, 4)), list(range(6))),
        "klein (e,a)": (ElementaryGrading(klein, (0, 1)), list(range(4))),
        "klein (e,a,b)": (ElementaryGrading(klein, (0, 1, 2)), list(range(4))),
        "klein (e,a,b,c)": (ElementaryGrading(klein, (0, 1, 2, 3)), list(range(4))),
    }
