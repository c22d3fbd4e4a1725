import collections
import itertools
import random

import pytest

from _oracles import EchelonByAddmul, apply_columns_by_addmul, nullspace_reading_all
from babyverma import fplin
from babyverma.fplin import (
    Echelon,
    addmul,
    apply_columns,
    fp_inv,
    joint_kernel,
    nullspace,
    peel,
    span_closure,
)


def test_fp_inv_values():
    assert fp_inv(2, 5) == 3
    assert fp_inv(4, 7) == 2
    assert fp_inv(1, 3) == 1
    assert fp_inv(-1, 7) == 6


def test_fp_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        fp_inv(0, 5)
    with pytest.raises(ZeroDivisionError):
        fp_inv(10, 5)


def test_fp_inv_exhaustive():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, p):
            assert (a * fp_inv(a, p)) % p == 1


def test_addmul_and_scale():
    v = {0: 1, 2: 3}
    addmul(v, {0: 4, 1: 1}, 1, 5)
    assert v == {1: 1, 2: 3}


def test_apply_columns():
    # op sends e0 -> e1, e1 -> 2 e0
    op = {0: {1: 1}, 1: {0: 2}}
    assert apply_columns(op, {0: 1, 1: 1}, 5) == {0: 2, 1: 1}
    assert apply_columns(op, {}, 5) == {}
    assert apply_columns({}, {0: 1}, 5) == {}


def _sparse(rng, n, p, density=0.3):
    # a random sparse vector whose coefficients may be unreduced or 0 mod p
    return {j: rng.randrange(-2 * p, 3 * p) for j in range(n) if rng.random() < density}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_inlined_apply_columns_matches_addmul(p):
    # same image, dict order included, with unreduced and zero scalars
    rng = random.Random(p)
    n = 12
    for _ in range(200):
        op = {j: col for j in range(n) if (col := _sparse(rng, n, p))}
        vec = _sparse(rng, n, p, 0.5)
        got, want = apply_columns(op, vec, p), apply_columns_by_addmul(op, vec, p)
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_inlined_echelon_matches_addmul(p, graded):
    # insert and reduce against the addmul oracle, step by step: the same
    # returned rows, the same rows and parts in the same order, or the same
    # error where a leading coefficient is 0 mod p but not 0
    rng = random.Random(100 + p)
    n = 14
    grade = [j % 3 for j in range(n)] if graded else None
    for _ in range(20):
        fast, slow = Echelon.graded(p, grade), EchelonByAddmul.graded(p, grade)
        for _ in range(30):
            vec = _sparse(rng, n, p)
            if graded:
                key = rng.randrange(3)
                vec = {j: c for j, c in vec.items() if grade[j] == key}
            assert fast.reduce(vec) == slow.reduce(vec)
            try:
                want = slow.insert(vec)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    fast.insert(vec)
                continue
            assert fast.insert(vec) == want
            assert repr(fast.rows) == repr(slow.rows)
            if graded:
                assert repr(fast.parts) == repr(slow.parts)


def test_echelon_rref_invariant():
    random.seed(7)
    p = 5
    ech = Echelon(p)
    vecs = []
    for _ in range(20):
        v = {j: random.randrange(p) for j in range(8)}
        v = {j: c for j, c in v.items() if c}
        vecs.append(v)
        ech.insert(v)
    # every row has 1 at its pivot and no other pivot in support
    for q, row in ech.rows.items():
        assert row[q] == 1
        assert all(k == q or k not in ech.rows for k in row)
    # every inserted vector reduces to zero
    for v in vecs:
        assert ech.contains(v)
    assert ech.rank() == 8


def test_echelon_insert_normalizes_unreduced_rows():
    # a leading coefficient that is 1 mod p but not 1 is normalized too,
    # and the entries 0 mod p go
    ech = Echelon(5)
    assert ech.insert({0: 6, 1: 7}) == {0: 1, 1: 2}
    assert ech.rows == {0: {0: 1, 1: 2}}
    ech = Echelon(5)
    assert ech.insert({0: 6, 1: 5}) == {0: 1}
    assert ech.rows == {0: {0: 1}}
    # reduced input keeps its own dict order and values
    ech = Echelon(5)
    assert list(ech.insert({2: 4, 0: 1}).items()) == [(2, 4), (0, 1)]


def test_span_closure_stops_at_an_unreduced_seed():
    # {0: 6} is e_0 at p = 5: the closure stops on it, before e_1
    assert span_closure([{0: 6}], [], 5, stop=0).rows == {0: {0: 1}}
    op = {0: {1: 1}}
    assert span_closure([{0: 6}], [op], 5, stop=0).rows == {0: {0: 1}}
    assert span_closure([{0: 6}], [op], 5).rank() == 2


def test_nullspace_single_row():
    # x + y = 0 over F_5: kernel spanned by (1, 4)
    ker = nullspace([{0: 1, 1: 1}], 2, 5)
    assert ker == [{0: 4, 1: 1}]


def test_nullspace_checks():
    random.seed(11)
    p = 7
    for _ in range(25):
        nrows = random.randrange(1, 6)
        ncols = random.randrange(1, 7)
        eqs = []
        for _ in range(nrows):
            v = {j: random.randrange(p) for j in range(ncols)}
            eqs.append({j: c for j, c in v.items() if c})
        ker = ker_list = nullspace(eqs, ncols, p)
        ech = Echelon(p)
        for eq in eqs:
            ech.insert(eq)
        assert len(ker_list) == ncols - ech.rank()
        for v in ker:
            for eq in eqs:
                s = sum(eq.get(j, 0) * c for j, c in v.items()) % p
                assert s == 0


def test_nullspace_stops_reading_at_full_rank():
    # e0 + e1, e1 reach rank 2 = ncols: the next equation is never read
    def equations():
        yield {0: 1, 1: 1}
        yield {1: 3}
        raise AssertionError("equation read after full rank")

    assert nullspace(equations(), 2, 5) == []
    # rank 1 of 2 reads every equation and keeps the kernel
    assert nullspace(iter([{0: 1, 1: 1}, {0: 2, 1: 2}]), 2, 5) == [{0: 4, 1: 1}]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nullspace_matches_reading_every_equation(p):
    # random small systems, often past full rank and often with repeats
    rng = random.Random(p)
    for _ in range(200):
        ncols = rng.randrange(0, 6)
        eqs = []
        for _ in range(rng.randrange(0, 9)):
            v = {j: rng.randrange(p) for j in range(ncols) if rng.random() < 0.6}
            eqs.append({j: c for j, c in v.items() if c})
        if eqs and rng.random() < 0.3:
            eqs.append(dict(rng.choice(eqs)))
        assert nullspace(eqs, ncols, p) == nullspace_reading_all(eqs, ncols, p)


def test_joint_kernel():
    # two operators on F_5^3 killing exactly e2
    a = {0: {0: 1}, 1: {1: 1}}
    b = {0: {2: 1}, 1: {0: 3}}
    ker = joint_kernel([a, b], 3, 5)
    assert ker == [{2: 1}]


def _kernel_unpeeled(ops, dim, p):
    # nullspace over the transposed equations "row i of op t", no peel
    eqs = {}
    for t, op in enumerate(ops):
        for j, col in op.items():
            for i, c in col.items():
                if c % p:
                    eqs.setdefault((t, i), {})[j] = c % p
    return nullspace(eqs.values(), dim, p)


def _live_columns(monkeypatch):
    # the live columns joint_kernel hands to nullspace after its peel
    seen = []

    def spy(equations, ncols, p, cols=None, grade=None):
        seen.append(list(cols))
        return nullspace(equations, ncols, p, cols, grade)

    monkeypatch.setattr(fplin, "nullspace", spy)
    return seen


@pytest.mark.parametrize(
    "ops, dim, live, kernel",
    [
        # full peel, every equation a singleton from the start
        ([{0: {0: 1}, 1: {1: 3}, 2: {2: 2}}], 3, [], []),
        # a cascade: row 0 drops x_0, then row 1 drops x_1, then row 2 x_2
        ([{0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}], 3, [], []),
        # a stall: no equation has a single live column
        ([{0: {0: 1, 1: 1}, 1: {0: 1, 1: 1}}], 2, [0, 1], [{0: 4, 1: 1}]),
        # the entry 5 is 0 mod p: row 0 has no live column, not one
        ([{0: {0: 5, 1: 1}, 1: {1: 1}}], 2, [0, 1], [{0: 4, 1: 1}]),
        # a peel that leaves a stall behind: x_2 goes, x_0 + x_1 stays
        ([{0: {0: 1}, 1: {0: 1}, 2: {0: 1, 1: 1}}, {2: {2: 2}}], 3, [0, 1], [{0: 4, 1: 1}]),
        # empty ops: all of F_p^dim
        ([], 2, [0, 1], [{0: 1}, {1: 1}]),
        # dim 0
        ([{}], 0, [], []),
        ([], 0, [], []),
    ],
    ids=["full-peel", "cascade", "stall", "zero-mod-p", "peel-then-stall", "no-ops", "dim0", "dim0-no-ops"],
)
def test_joint_kernel_peel(monkeypatch, ops, dim, live, kernel):
    seen = _live_columns(monkeypatch)
    assert joint_kernel(ops, dim, 5) == kernel == _kernel_unpeeled(ops, dim, 5)
    assert seen == [live]


def _random_sparse_ops(rng, dim, p, classes):
    # operators homogeneous for the grading j % classes: column j lands
    # in class (j + 1) % classes, on a random sparse set of rows with
    # coefficients in 0..2p-1
    ops = []
    for _ in range(rng.randrange(1, 4)):
        op = {}
        for j in range(dim):
            rows = [i for i in range(dim) if i % classes == (j + 1) % classes]
            col = {i: rng.randrange(2 * p) for i in rows if rng.random() < 0.35}
            if col:
                op[j] = col
        ops.append(op)
    return ops


class _Logged:
    """A reader of a column-form op through many(js) alone that logs the
    indices of each call."""

    def __init__(self, op):
        self.op, self.calls = op, []

    def many(self, js):
        self.calls.append(list(js))
        return {j: col for j in self.calls[-1] if (col := self.op.get(j))}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_joint_kernel_matches_the_unpeeled_nullspace(monkeypatch, p):
    # seeded random sparse systems, flat and graded, entries 0 mod p
    # included: the same vectors, each with its free column first.  Read
    # through many, every op is read once, at the columns live after the
    # peel of the ops before it, and nowhere else; tables come back as
    # read, in place.  The peel ends where no equation of any op has one
    # live column.  The live set peel(ops[:t]) leaves starts a run that
    # reads the prefix's ops there exactly, every later op at live columns
    # alone, and gives the same vectors
    seen = _live_columns(monkeypatch)
    rng = random.Random(100 + p)
    stalled = peeled = staged = subset = 0
    for _ in range(150):
        dim = rng.randrange(0, 13)
        classes = rng.randrange(1, 5)
        ops = _random_sparse_ops(rng, dim, p, classes)
        want = _kernel_unpeeled(ops, dim, p)
        assert joint_kernel(ops, dim, p) == want
        got = joint_kernel(ops, dim, p, [j % classes for j in range(dim)])
        assert got == want
        assert [next(iter(v)) for v in got] == [next(iter(v)) for v in want]
        stalled += len(seen[-1]) > 0
        peeled += len(seen[-1]) < dim
        live = seen[-1]
        assert peel(ops, dim, p)[0] == live
        assert all(a is b for a, b in zip(peel(ops, dim, p)[1], ops))
        for op in ops:
            counts = collections.Counter(i for j in live for i, c in op.get(j, {}).items() if c % p)
            assert 1 not in counts.values()
        readers = [_Logged(op) for op in ops]
        assert joint_kernel(readers, dim, p) == want
        assert seen[-1] == live
        for t, reader in enumerate(readers):
            joint_kernel(ops[:t], dim, p)
            assert reader.calls == [seen[-1]]
            staged += len(seen[-1]) < dim
        for t in range(1, len(ops) + 1):
            prefix = peel(ops[:t], dim, p)[0]
            joint_kernel(ops[:t], dim, p)
            assert prefix == seen[-1]
            readers = [_Logged(op) for op in ops]
            assert joint_kernel(readers, dim, p, cols=prefix) == want
            assert joint_kernel(ops, dim, p, [j % classes for j in range(dim)], prefix) == want
            assert seen[-1] == live
            assert all(r.calls == [prefix] for r in readers[:t])
            assert all(len(r.calls) == 1 and set(r.calls[0]) <= set(prefix) for r in readers)
            subset += t < len(ops) and len(prefix) < dim
    assert stalled > 80 and peeled > 80 and staged > 80 and subset > 80


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_order_of_the_ops_peels_to_one_live_set(p):
    # the peel is confluent: the same seeded systems, their ops in every
    # order, each read at other live columns and killed in another order,
    # end at one live set and give the same vectors, flat and graded
    rng = random.Random(100 + p)
    reordered = 0
    for _ in range(150):
        dim = rng.randrange(0, 13)
        classes = rng.randrange(1, 5)
        ops = _random_sparse_ops(rng, dim, p, classes)
        grade = [j % classes for j in range(dim)]
        live, want = peel(ops, dim, p)[0], joint_kernel(ops, dim, p)
        for order in itertools.permutations(ops):
            assert peel(list(order), dim, p)[0] == live
            assert joint_kernel(list(order), dim, p) == want
            assert joint_kernel(list(order), dim, p, grade) == want
        reordered += len(ops) > 1 and 0 < len(live) < dim
    assert reordered > 30


class _LoggedTable(dict):
    """A column table that logs each column read through get and fails
    if anything iterates it whole."""

    def __init__(self, op):
        super().__init__(op)
        self.read = []

    def get(self, j, default=None):
        self.read.append(j)
        return super().get(j, default)

    def _whole(self, *args):
        raise AssertionError("a table was iterated whole")

    __iter__ = keys = values = items = _whole


@pytest.mark.parametrize("p", [3, 5])
def test_joint_kernel_reads_tables_in_place_and_readers_through_many(p):
    # a table is read in place at live columns alone, never iterated
    # whole, from every column or from the live set of a prefix's peel;
    # a reader is read once through many, at the columns live once the
    # ops before it are peeled from there: both give the unpeeled
    # vectors, flat and graded
    rng = random.Random(200 + p)
    for _ in range(100):
        dim = rng.randrange(0, 13)
        classes = rng.randrange(1, 5)
        ops = _random_sparse_ops(rng, dim, p, classes)
        want = _kernel_unpeeled(ops, dim, p)
        t = rng.randrange(1, len(ops) + 1)
        prefix = peel(ops[:t], dim, p)[0]
        for grade in (None, [j % classes for j in range(dim)]):
            for start in (None, prefix):
                tables = [_LoggedTable(op) for op in ops]
                assert joint_kernel(tables, dim, p, grade, start) == want
                assert all(set(table.read) <= set(range(dim) if start is None else start) for table in tables)
            readers = [_Logged(op) for op in ops]
            assert joint_kernel(readers, dim, p, grade, prefix) == want
            assert [r.calls for r in readers] == [[peel(ops[:s], dim, p, prefix)[0]] for s in range(len(ops))]


def test_span_closure_cyclic():
    # shift operator on F_3^3: closure of e0 is everything
    op = {0: {1: 1}, 1: {2: 1}, 2: {0: 1}}
    ech = span_closure([{0: 1}], [op], 3)
    assert ech.rank() == 3
    # invariant line
    ech2 = span_closure([{0: 1, 1: 1, 2: 1}], [op], 3)
    assert ech2.rank() == 1


def test_span_closure_early_exit():
    op = {j: {j + 1: 1} for j in range(9)}
    ech = span_closure([{0: 1}], [op], 5, dim=4)
    assert ech.rank() == 4


def test_span_closure_stop_returns_partial_rank():
    # shift chain e0 -> e1 -> ... -> e9: stop once e3 is reached
    op = {j: {j + 1: 1} for j in range(9)}
    ech = span_closure([{0: 1}], [op], 5, dim=10, stop=3)
    assert ech.rank() == 4
    assert ech.contains({3: 1})
    # the same with a grading (index mod 2) that the shift moves between keys
    grade = [j % 2 for j in range(10)]
    ech = span_closure([{0: 1}], [op], 5, dim=10, grade=grade, stop=3)
    assert ech.rank() == 4
    assert ech.contains({3: 1})


def test_span_closure_rejects_inhomogeneous_seed():
    op = {j: {j + 1: 1} for j in range(3)}
    with pytest.raises(ValueError):
        span_closure([{0: 1, 1: 2}], [op], 5, grade=[0, 1, 0, 1])
    # one homogeneous seed among several is not enough
    with pytest.raises(ValueError):
        span_closure([{0: 1, 2: 1}, {1: 1, 2: 1}], [op], 5, grade=[0, 1, 0, 1])


def test_span_closure_graded_rows_equal_flat():
    # operators on F_p^12 that move the grade i mod 3 by a fixed step
    rng = random.Random(5)
    p, n = 5, 12
    grade = [i % 3 for i in range(n)]
    proper = 0
    for _ in range(30):
        ops = []
        for step in (1, 2):
            op = {}
            for i in range(n):
                col = {}
                for j in range(n):
                    if (j - i) % 3 == step and rng.random() < 0.15:
                        col[j] = rng.randrange(1, p)
                if col:
                    op[i] = col
            ops.append(op)
        g = rng.randrange(3)
        seeds = [
            {i: rng.randrange(1, p) for i in range(g, n, 3) if rng.random() < 0.5}
            for _ in range(2)
        ]
        flat = span_closure(seeds, ops, p)
        graded = span_closure(seeds, ops, p, grade=grade)
        assert graded.rows == flat.rows
        assert graded.pivots() == flat.pivots()
        proper += 0 < flat.rank() < n
    assert proper > 0


def test_graded_echelon_equals_flat_on_random_homogeneous_vectors():
    # zero vectors, repeats and vectors already in the span ride along
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            n, keys = rng.randrange(4, 16), rng.randrange(1, 5)
            grade = [rng.randrange(keys) for _ in range(n)]
            graded, flat = Echelon.graded(p, grade), Echelon(p)
            seen = []
            for _ in range(3 * n):
                roll = rng.random()
                if roll < 0.1:
                    v = {}
                elif roll < 0.2 and seen:
                    v = dict(rng.choice(seen))
                elif roll < 0.3 and flat.rows:
                    v = {}
                    for row in flat.rows.values():
                        addmul(v, row, rng.randrange(p), p)
                else:
                    key = rng.randrange(keys)
                    v = {
                        i: rng.randrange(1, p)
                        for i in range(n)
                        if grade[i] == key and rng.random() < 0.5
                    }
                seen.append(v)
                assert (graded.insert(v) is None) == (flat.insert(v) is None)
                assert graded.rows == flat.rows
            for v in seen:
                assert graded.contains(v) and flat.contains(v)
            probe = {i: rng.randrange(1, p) for i in range(n) if grade[i] == 0}
            assert graded.contains(probe) == flat.contains(probe)


def test_graded_closure_through_a_subclass_with_the_plain_signatures(monkeypatch):
    # a subclass that defines only __init__(self, p) and insert(self,
    # vec), as a tracer's counting Echelon does, must serve the graded
    # closure and see one insert per nonzero image
    import babyverma.fplin as fplin

    calls = []

    class Counting(fplin.Echelon):
        def __init__(self, p):
            super().__init__(p)

        def insert(self, vec):
            calls.append(dict(vec))
            return super().insert(vec)

    monkeypatch.setattr(fplin, "Echelon", Counting)
    p, n = 5, 12
    grade = [i % 3 for i in range(n)]
    # shift by 3 (same key) and by 1 (next key); both kill the top indices
    ops = [
        {i: {i + 3: 1} for i in range(n - 3)},
        {i: {i + 1: 2} for i in range(n - 1)},
    ]
    images = []

    def recording(op, v, q):
        out = apply_columns(op, v, q)
        images.append(out)
        return out

    monkeypatch.setattr(fplin, "apply_columns", recording)
    ech = fplin.span_closure([{0: 1}], ops, p, grade=grade)
    assert isinstance(ech, Counting)
    assert ech.rank() == n
    nonzero = [v for v in images if v]
    assert len(nonzero) < len(images)
    assert calls == [{0: 1}] + nonzero
