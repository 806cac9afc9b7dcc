"""Shared fixtures: an independent non-abelian Cayley table and file helpers."""

import itertools

import pytest

from gradedpi.grading import ElementaryGrading, TableGroup


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


@pytest.fixture(scope="session")
def s3_grading():
    """M_3 graded by S_3 through three distinct permutations."""
    names, table = permutation_group_table(3)
    structure = TableGroup(names, table)
    return ElementaryGrading(structure, (0, 1, 3))


KLEIN_TABLE = "e a b c\n" "e a b c\n" "a e c b\n" "b c e a\n" "c b a e\n"


@pytest.fixture
def cayley_file(tmp_path):
    """Write a Cayley table file for the Klein four-group and return its path."""
    path = tmp_path / "klein.txt"
    path.write_text(KLEIN_TABLE)
    return str(path)


@pytest.fixture(scope="session")
def klein_file(tmp_path_factory):
    """The Klein four-group table file, shared by a whole session."""
    path = tmp_path_factory.mktemp("klein") / "klein.txt"
    path.write_text(KLEIN_TABLE)
    return str(path)
