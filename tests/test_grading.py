"""Grading structures, row maps, and complete sequences."""

import functools
import itertools
import random
import tracemalloc

import pytest

from conftest import KLEIN_TABLE, permutation_group_table
from gradedpi.grading import (
    MAX_CAYLEY_FILE_BYTES,
    CyclicGroup,
    ElementaryGrading,
    GradingError,
    IntegerGroup,
    MU_ZERO,
    MatrixUnitSemigroup,
    TableGroup,
    _walk_from,
    complete_sequence_unit_witness,
    enumerate_complete_sequences,
    is_complete_sequence,
    parse_grading_spec,
)
from gradedpi.oracles import unit_walks


def _paths(grading, hs):
    """Start row to its path, for the start rows whose ``_walk_from`` over
    the grading's row maps survives ``hs``."""
    targets = {h: grading._target(h) for h in hs}
    walks = {k: _walk_from(targets, hs, k) for k in range(1, grading.n + 1)}
    return {k: tuple(path) for k, path in walks.items() if path is not None}


def brute_support(grading):
    return {
        grading.unit_degree(i, j)
        for i in range(1, grading.n + 1)
        for j in range(1, grading.n + 1)
    }


class TestStructures:
    def test_cyclic_group_axioms(self):
        st = CyclicGroup(4)
        assert st.identity == 0
        for a in range(4):
            assert st.mul(a, st.inverse(a)) == 0
            for b in range(4):
                assert st.mul(a, b) == (a + b) % 4

    def test_cyclic_group_equals_its_validated_table(self):
        # CyclicGroup builds its structure without the group check; the
        # same table through the checked path must give the same arithmetic
        for n in range(1, 13):
            names = [str(i) for i in range(n)]
            table = [[(a + b) % n for b in range(n)] for a in range(n)]
            built = CyclicGroup(n)
            checked = TableGroup(names, table)
            assert built.identity == checked.identity
            for a in range(n):
                assert built.inverse(a) == checked.inverse(a)
                for b in range(n):
                    assert built.mul(a, b) == checked.mul(a, b)

    def test_integers(self):
        st = IntegerGroup()
        assert st.identity == 0
        assert st.mul(3, -5) == -2
        assert st.inverse(7) == -7
        assert st.product([1, -1, 2]) == 2

    def test_matrix_units_products(self):
        st = MatrixUnitSemigroup(2)
        assert st.mul((1, 2), (2, 1)) == (1, 1)
        assert st.mul((1, 2), (1, 2)) == MU_ZERO
        assert st.mul(MU_ZERO, (1, 1)) == MU_ZERO
        with pytest.raises(GradingError):
            st.identity
        with pytest.raises(GradingError):
            st.inverse((1, 2))
        for empty in ((), [], iter(())):
            with pytest.raises(GradingError, match=r"^empty product is undefined without an identity$"):
                st.product(empty)

    @pytest.mark.parametrize("spec", [f"zn:{n}" for n in range(1, 10)] + ["zn:128", "zp:7", "z:3"])
    def test_product_matches_the_generic_reduction(self, spec):
        # the cyclic and integer kinds add their grades in one sum
        st = parse_grading_spec(spec).structure
        rng = random.Random(spec)
        if isinstance(st, IntegerGroup):
            draw = lambda: rng.choice((rng.randint(-9, 9), rng.randint(-(10**30), 10**30)))
        else:
            draw = lambda: rng.randrange(st.order)
        words = [(), (draw(),), *(tuple(draw() for _ in range(rng.randint(2, 40))) for _ in range(50))]
        words.append(tuple(draw() for _ in range(4096)))
        for hs in words:
            expected = functools.reduce(st.mul, hs, st.identity)
            assert st.product(hs) == expected
            assert st.product(list(hs)) == expected
            assert st.product(h for h in hs) == expected

    def test_matrix_units_associative(self):
        st = MatrixUnitSemigroup(2)
        els = st.elements()
        for a, b, c in itertools.product(els, repeat=3):
            assert st.mul(st.mul(a, b), c) == st.mul(a, st.mul(b, c))

    def test_nonabelian_table_accepted(self, s3_grading):
        st = s3_grading.structure
        assert st.order == 6
        ab = st.mul(1, 3)
        ba = st.mul(3, 1)
        assert ab != ba  # genuinely non-abelian

    def test_bad_tables_rejected(self):
        with pytest.raises(GradingError):
            TableGroup(["e", "a"], [[0, 1], [1, 1]])  # no inverse for a
        with pytest.raises(GradingError):
            # has an identity but (1*2)*2 != 1*(2*2)
            TableGroup(["e", "a", "b"], [[0, 1, 2], [1, 0, 0], [2, 0, 1]])
        with pytest.raises(GradingError):
            TableGroup(["e"], [[0, 0]])  # not square


class TestElementaryGrading:
    def test_distinctness_enforced(self):
        with pytest.raises(GradingError):
            ElementaryGrading(CyclicGroup(3), (1, 1, 0))

    def test_positional_tuple_fixed(self):
        with pytest.raises(GradingError):
            ElementaryGrading(MatrixUnitSemigroup(2), ((1, 2), (2, 1)))

    def test_unit_degree_examples(self):
        zn3 = parse_grading_spec("zn:3")
        assert zn3.unit_degree(2, 2) == 0  # diagonal is neutral
        assert zn3.unit_degree(1, 2) == 1
        z3 = parse_grading_spec("z:3")
        assert z3.unit_degree(3, 1) == -2
        with pytest.raises(GradingError):
            z3.unit_degree(0, 1)

    def test_support_examples(self):
        zn2 = parse_grading_spec("zn:2")
        assert zn2.support() == brute_support(zn2) == {0, 1}
        z2 = parse_grading_spec("z:2")
        assert z2.support() == brute_support(z2) == {-1, 0, 1}
        z4 = parse_grading_spec("z:4")
        assert z4.support() == brute_support(z4) == set(range(-3, 4))

    def test_target_examples(self):
        assert parse_grading_spec("z:3")._target(1) == {1: 2, 2: 3}
        assert parse_grading_spec("zn:2")._target(1) == {1: 2, 2: 1}
        assert parse_grading_spec("z:2")._target(2) == {}

    def test_target_against_definition(self, s3_grading):
        # brute force over unit positions, for every grading kind
        for grading in (
            parse_grading_spec("zn:3"),
            parse_grading_spec("z:3"),
            parse_grading_spec("mu:3"),
            s3_grading,
        ):
            for h in brute_support(grading):
                target = grading._target(h)
                expected = {}
                for k in range(1, grading.n + 1):
                    cols = [
                        j
                        for j in range(1, grading.n + 1)
                        if grading.unit_degree(k, j) == h
                    ]
                    if cols:
                        assert len(cols) == 1
                        expected[k] = cols[0]
                # rows ascending: start rows iterate the map
                assert list(target.items()) == list(expected.items())
                # one dict per grade, shared by every later walk
                assert grading._target(h) is target

    def test_target_cached_per_grading(self):
        zn3 = parse_grading_spec("zn:3")
        assert zn3._target(1) is zn3._target(1)
        # a new grading of the same spec computes its own row maps
        again = parse_grading_spec("zn:3")
        assert again._target(1) is not zn3._target(1)
        assert again._target(1) == zn3._target(1)
        # an invalid grade is refused every time, never cached
        for _ in range(2):
            with pytest.raises(GradingError, match="not a grade"):
                zn3._target(3)
            assert 3 not in zn3._targets

    def test_row_walk_examples(self):
        zn2 = parse_grading_spec("zn:2")
        assert zn2.row_walk([1, 1]) == (1, 2)
        assert _paths(zn2, [1, 1]) == unit_walks(zn2, [1, 1]) == {1: (1, 2, 1), 2: (2, 1, 2)}
        z2 = parse_grading_spec("z:2")
        assert z2.row_walk([1, 1]) == ()
        assert _paths(z2, [1, 1]) == unit_walks(z2, [1, 1]) == {}
        assert z2.row_walk([]) == (1, 2)
        assert _paths(z2, []) == unit_walks(z2, []) == {1: (1,), 2: (2,)}

    def test_row_walk_matches_single_step(self, s3_grading):
        for grading in (parse_grading_spec("zn:3"), parse_grading_spec("z:2"), s3_grading):
            for h in sorted(grading.support(), key=repr):
                target = grading._target(h)
                assert grading.row_walk([h]) == tuple(target)
                assert _paths(grading, [h]) == unit_walks(grading, [h]) == {k: (k, j) for k, j in target.items()}

    def test_row_walk_recurrence(self, s3_grading):
        # g at the next row equals g at the current row times the step degree
        grading = s3_grading
        st = grading.structure
        supp = sorted(grading.support())
        for hs in itertools.product(supp, repeat=3):
            paths = _paths(grading, hs)
            assert paths == unit_walks(grading, hs)
            assert grading.row_walk(hs) == tuple(paths)
            for path in paths.values():
                for l, h in enumerate(hs):
                    g_cur = grading.row_grades[path[l] - 1]
                    g_next = grading.row_grades[path[l + 1] - 1]
                    assert g_next == st.mul(g_cur, h)

    def test_degree_cocycle(self, s3_grading):
        for grading in (parse_grading_spec("zn:4"), parse_grading_spec("z:3"), s3_grading):
            st = grading.structure
            for i in range(1, grading.n + 1):
                for j in range(1, grading.n + 1):
                    for k in range(1, grading.n + 1):
                        lhs = st.mul(grading.unit_degree(i, j), grading.unit_degree(j, k))
                        assert lhs == grading.unit_degree(i, k)


class TestCompleteSequences:
    def test_examples(self):
        assert is_complete_sequence(2, (1, 1))
        assert not is_complete_sequence(2, (0, 0))
        assert not is_complete_sequence(3, (1, 2, 0))
        with pytest.raises(GradingError):
            is_complete_sequence(3, (1, 1))

    def test_witness_examples(self):
        assert complete_sequence_unit_witness(2, (1, 1)) == ((1, 2), (2, 1))
        assert complete_sequence_unit_witness(2, (0, 0)) is None
        assert complete_sequence_unit_witness(3, (1, 1, 1)) == ((1, 2), (2, 3), (3, 1))

    def test_witness_iff_complete_exhaustive(self):
        for n in (1, 2, 3):
            grading = parse_grading_spec(f"zn:{n}")
            for seq in itertools.product(range(n), repeat=n):
                witness = complete_sequence_unit_witness(n, seq)
                assert (witness is not None) == is_complete_sequence(n, seq)
                if witness is None:
                    continue
                assert [grading.unit_degree(i, j) for (i, j) in witness] == list(seq)
                assert all(witness[l][1] == witness[l + 1][0] for l in range(n - 1))
                assert witness[0][0] == witness[-1][1]
                assert {u[0] for u in witness} == set(range(1, n + 1))

    def test_enumeration(self):
        assert enumerate_complete_sequences(1) == [(0,)]
        assert enumerate_complete_sequences(2) == [(1, 1)]
        # independent oracle: brute force the definition
        brute = [
            seq
            for seq in itertools.product(range(3), repeat=3)
            if sum(seq) % 3 == 0
            and {sum(seq[: i + 1]) % 3 for i in range(3)} == {0, 1, 2}
        ]
        assert enumerate_complete_sequences(3) == brute
        with pytest.raises(GradingError):
            enumerate_complete_sequences(9)


class TestSpecStrings:
    def test_canonical_specs(self):
        zn = parse_grading_spec("zn:3")
        assert zn.row_grades == (1, 2, 0)
        zp = parse_grading_spec("zp:5")
        assert zp.n == 5 and zp.structure.is_cyclic
        z = parse_grading_spec("z:4")
        assert z.row_grades == (1, 2, 3, 4)
        mu = parse_grading_spec("mu:2")
        assert mu.row_grades == ((1, 1), (2, 2))

    def test_zp_requires_prime(self):
        with pytest.raises(GradingError):
            parse_grading_spec("zp:4")

    def test_group_file(self, klein_file):
        grading = parse_grading_spec(f"group:{klein_file}:e,a,b")
        assert grading.n == 3
        st = grading.structure
        assert st.order == 4
        # Klein group: every element is its own inverse
        for g in range(4):
            assert st.inverse(g) == g
        assert grading.unit_degree(2, 3) == st.mul(st.inverse(1), 2)

    def test_group_file_errors(self, klein_file):
        with pytest.raises(GradingError):
            parse_grading_spec(f"group:{klein_file}:e,q")
        with pytest.raises(GradingError):
            parse_grading_spec("group:/nonexistent/file:e,a")

    def test_malformed_specs(self):
        for bad in ("zn", "zn:x", "zn:0", "w:3", ""):
            with pytest.raises(GradingError):
                parse_grading_spec(bad)


class TestCayleyFileReading:
    def test_one_byte_over_the_bound_is_refused(self, tmp_path):
        path = tmp_path / "padded.txt"
        padding = MAX_CAYLEY_FILE_BYTES - len(KLEIN_TABLE) - 2
        path.write_text(KLEIN_TABLE + "#" + "p" * padding + "\n")
        assert parse_grading_spec(f"group:{path}:e,a").n == 2
        path.write_text(KLEIN_TABLE + "#" + "p" * (padding + 1) + "\n")
        with pytest.raises(GradingError) as exc:
            parse_grading_spec(f"group:{path}:e,a")
        assert str(exc.value) == (
            f"Cayley table file {str(path)!r} exceeds the limit of {MAX_CAYLEY_FILE_BYTES} bytes"
        )

    def test_small_file_costs_no_buffer_of_the_bound(self, tmp_path):
        names, table = permutation_group_table(3)
        path = tmp_path / "s3.txt"
        path.write_text("\n".join([" ".join(names)] + [" ".join(names[v] for v in row) for row in table]))
        tracemalloc.start()
        try:
            grading = parse_grading_spec(f"group:{path}:{names[0]},{names[3]},{names[4]}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grading.n == 3
        # one 64 KiB piece at most, against 1 MB for a read of the bound
        assert peak < 200_000, peak
