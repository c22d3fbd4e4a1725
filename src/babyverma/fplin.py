"""Sparse linear algebra over the prime field F_p.

Vectors are dicts {index: coeff} with coeffs in 1..p-1 (zero entries are
never stored).  An operator is read through one protocol, of which a
reader offers a part:
  - a table, a dict {col_index: image_vector} (column form, missing
    columns act as zero): peel, so joint_kernel, reads it in place at
    the live columns, column by column, and apply_columns reads it too;
  - many(js), the nonempty columns at the ascending indices js as a dict:
    peel reads every other operator there once, at its live columns, so
    a reader can make them in blocks (modules.InducedModule joins them one
    rank at a time);
  - get(j), column j or None, and apply(vec), the image of a whole
    vector, are what the closures read: apply_columns uses apply first,
    as modules._RowsAt offers it, else get.
apply_columns stays on get(j): a closure applies each vector once, on
its own support, and sorting that support for many was measured slower
than the single reads.  The hot loops write the axpy out rather than
call addmul once per row touched.
"""

from collections import deque


def fp_inv(a, p):
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 mod %d" % p)
    return pow(a, -1, p)


def addmul(acc, vec, c, p):
    """acc += c * vec, in place. Returns acc."""
    c %= p
    if c == 0:
        return acc
    for k, v in vec.items():
        n = (acc.get(k, 0) + c * v) % p
        if n:
            acc[k] = n
        elif k in acc:
            del acc[k]
    return acc


def apply_columns(op, vec, p):
    """Image of vec under op, in column form or applying itself."""
    apply = getattr(op, "apply", None)
    if apply is not None:
        return apply(vec)
    out = {}
    get = out.get
    for j, c in vec.items():
        col = op.get(j)
        if col:
            # out holds reduced values, so c = 0 mod p leaves it as it was
            for k, v in col.items():
                if n := (get(k, 0) + c * v) % p:
                    out[k] = n
                elif k in out:
                    del out[k]
    return out


class Echelon:
    """Row space in reduced row echelon form, built incrementally.

    rows maps pivot column -> row vector; every row has coefficient 1 at
    its pivot and 0 at every other pivot, so reduce() lands in canonical
    complement coordinates.

    An Echelon made by graded(p, grade) holds vectors each supported on
    a single grade key (grade maps each index to its key).  An insert
    then back-substitutes only into the rows of its own key: the
    other rows are zero on its support, so rows stays the same RREF as
    for the same vectors inserted flat.
    """

    def __init__(self, p):
        self.p = p
        self.rows = {}
        self.grade = None

    @classmethod
    def graded(cls, p, grade):
        """An empty Echelon for vectors homogeneous under grade (flat if
        grade is None).  parts maps each grade key to its rows."""
        ech = cls(p)
        ech.grade, ech.parts = grade, {}
        return ech

    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        p, rows = self.p, self.rows
        v = dict(vec)
        get = v.get
        # each subtraction only touches non-pivot columns, one pass is enough
        for q in [k for k in v if k in rows]:
            if c := -get(q, 0) % p:
                for k, x in rows[q].items():
                    if n := (get(k, 0) + c * x) % p:
                        v[k] = n
                    elif k in v:
                        del v[k]
        return v

    def insert(self, vec):
        """Add vec to the row space. Returns the new normalized row if the
        rank grew, else None."""
        p = self.p
        v = self.reduce(vec)
        if not v:
            return None
        j = min(v)
        if v[j] != 1:
            cinv = fp_inv(v[j], p)
            v = {k: n for k, c in v.items() if (n := cinv * c % p)}
        rows = self.rows if self.grade is None else self.parts.get(self.grade[j])
        if rows is None:
            rows = self.parts[self.grade[j]] = {}
        for row in rows.values():
            if (c := row.get(j)) and (c := -c % p):
                for k, x in v.items():
                    if n := (row.get(k, 0) + c * x) % p:
                        row[k] = n
                    elif k in row:
                        del row[k]
        rows[j] = self.rows[j] = v
        return v

    def contains(self, vec):
        return not self.reduce(vec)

    def basis(self):
        return [self.rows[j] for j in sorted(self.rows)]


def nullspace(equations, ncols, p, cols=None, grade=None):
    """Kernel basis for a system of sparse equation rows over columns
    0..ncols-1, or over the ascending columns cols alone (the others vanish
    on the kernel), one vector per free column in ascending order, that
    column its first key, in RREF-dual form (exact, canonical).  Stops
    reading equations once their rank reaches the column count.  grade, as
    in Echelon.graded, keeps both back-substitution and reading in a key."""
    cols = range(ncols) if cols is None else cols
    ech = Echelon.graded(p, grade)
    for eq in equations:
        if ech.insert(eq) is not None and len(ech.rows) == len(cols):
            return []
    out = []
    for f in cols:
        if f not in ech.rows:
            rows = ech.rows if grade is None else ech.parts.get(grade[f], {})
            out.append({f: 1, **{q: (-r[f]) % p for q, r in rows.items() if r.get(f)}})
    return out


def peel(ops, dim, p, cols=None):
    """The live columns, ascending, of the equations "row i of op t" of
    column-form operators on F_p^dim, and the ops as read.  An equation
    with one live column j forces x_j = 0 on the joint kernel, so j is
    dropped and its equations lose it, until none has one.  Equation
    i*len(ops)+t keeps its live count and live column sum, the column
    itself at count 1.

    Each op is read once, at the columns live after the ops before it are
    peeled, and the peel runs again: a table in place, any other op
    through many(live columns).  The kills read an op only at columns
    live when it was read, so no copy is needed.  The peel is confluent:
    a kill only lowers counts, so an equation with one live column keeps
    it until it is killed, and every order of kills ends at the one live
    set where no equation has a single live column.  A staged kill is one
    of the full peel, the counts of the ops read being live counts.

    cols, ascending, starts the peel there, every op read at live columns
    alone.  That is exact when cols is the live set a peel of some of the
    equations leaves (peel(ops[:t]), say): each kill of that peel is one
    of the full peel, so the full peel reaches cols and, being confluent,
    ends at the same live set."""
    T, read = len(ops), []
    count, total, live = [0] * (dim * T), [0] * (dim * T), [True] * dim
    cols = range(dim) if cols is None else cols
    for t, op in enumerate(ops):
        if isinstance(op, dict):
            at = ((j, col) for j in cols if live[j] and (col := op.get(j)))
        else:
            op = op.many(j for j in cols if live[j])
            at = op.items()
        read.append(op)
        for j, col in at:
            for i, c in col.items():
                if c % p:
                    count[i * T + t] += 1
                    total[i * T + t] += j
        stack = [e for e in range(t, dim * T, T) if count[e] == 1]
        while stack:
            if count[e := stack.pop()] == 1:
                j = total[e]
                live[j] = False
                for s, seen in enumerate(read):
                    for i, c in seen.get(j, {}).items():
                        if c % p:
                            e = i * T + s
                            count[e] -= 1
                            total[e] -= j
                            if count[e] == 1:
                                stack.append(e)
    return [j for j in cols if live[j]], read


def joint_kernel(ops, dim, p, grade=None, cols=None):
    """Common kernel of column-form operators on F_p^dim, as nullspace of
    the equations "row i of op t" (grade as there), after their peel
    (cols as there).  Each peeled e_j lies in the row space, so the RREF
    is the e_j and the RREF of the live columns' equations, the only ones
    built and solved: the vectors do not depend on where the peel starts
    or in what order it kills.  modules.maximal_vectors keeps the live set
    of the Levi x_j's peel per head and starts every module over it there."""
    cols, read = peel(ops, dim, p, cols)
    T, eqs = len(read), {}
    for j in cols:
        for t, op in enumerate(read):
            for i, c in op.get(j, {}).items():
                if c % p:
                    eqs.setdefault(i * T + t, {})[j] = c
    return nullspace(eqs.values(), dim, p, cols, grade)


def span_closure(seeds, ops, p, dim=None, grade=None, stop=None):
    """Smallest subspace containing seeds and stable under the column-form
    operators, as the Echelon built on the way. Early exit when the rank
    hits dim.

    grade, if given, maps each index to a key such that every operator
    sends a vector supported on one key to a vector supported on one key.
    The closure then builds Echelon.graded(p, grade); every seed must be
    supported on a single key (else ValueError).  The result equals the
    flat one.  stop, if given, is an index: the closure returns as soon
    as e_stop lies in it.

    The queue is first in, first out: rows go in by their distance from
    the seeds, which keeps the reduced rows sparse and each insert cheap.
    A closure run to the end gives the same rows in any order, RREF
    being unique, and one stopped at e_stop stops in any order."""
    space = Echelon.graded(p, grade)
    target = None if stop is None else {stop: 1}
    queue = deque()

    def insert(v):
        # True once e_stop lies in the span; in RREF that is when its
        # row is exactly e_stop
        if not v:
            return False
        r = space.insert(v)
        if r is None:
            return False
        queue.append(r)
        return target is not None and space.rows.get(stop) == target

    done = False
    for s in seeds:
        if grade is not None and len({grade[i] for i in s}) > 1:
            raise ValueError("seed is not homogeneous for the grading")
        done = insert(s) or done
    while queue and not done:
        if dim is not None and space.rank() >= dim:
            break
        v = queue.popleft()
        for op in ops:
            if insert(apply_columns(op, v, p)):
                done = True
                break
    return space
