"""Scaffoldings: per-point bijection tables turning walks into Motzkin paths.

A scaffolding attaches to every triangle point z a bijection delta_z from

    A(z) = {(cell, step) : cell in C(z), step usable at the cell's height}

onto the disjoint union of the cell sets of the three forward neighbours of
z, each target tagged with the forward step leading to it, such that the
cell height changes by +1/0/-1 under an up/flat/down step. Running the
table along a Motzkin path (cell by cell, starting from the unique height-0
cell of the origin) emits one forward lattice step per letter, and running
it backwards inverts the map exactly: ``lattice.run`` and ``lattice.unrun``
with ``delta`` and ``delta_inv``. Both directions make one lookup and point
arithmetic per letter, and hold no list of points; ``lookup_count`` exposes
the lookups for the linear-time contract.

Two constructions are provided. ``RandomScaffolding`` materializes tables by
matching, per height class, the incoming (cell, step) pairs with the target
cells, uniformly at random but reproducibly by seed. ``TrapeziumScaffolding``
is the canonical rule-based one: its twelve evaluation cases read only the
first two coordinates of z and the cell, never the side length, so the same
rules drive walks in triangles of every size at once.
"""

from __future__ import annotations

import functools
import json
import random

from .errors import AmplitudeExceeded, EmptySet, NotAllowed, OutOfLattice
from .lattice import all_points, forward_neighbours, move, origin, run, unrun
from .motzkin import _HEIGHT_MOVE, MotzkinWord, allowed_steps, uniform_sample
from .profiles import cell_bounds, cell_representation, certify


class Scaffolding:
    """Shared transducer machinery; subclasses provide delta and its inverse."""

    L: int

    def __init__(self):
        self.lookup_count = 0

    def delta(self, z, cell, step):
        raise NotImplementedError

    def delta_inv(self, z, j, cell):
        raise NotImplementedError

    def motzkin_to_triangular(self, word):
        """One forward lattice step per Motzkin letter, from the origin."""
        if isinstance(word, str):
            word = MotzkinWord(word)
        if not word.is_path:
            raise AmplitudeExceeded("input must start at height 0")
        return self._run(word.steps, self.delta)

    def triangular_to_motzkin(self, steps):
        """Inverse transducer: ``unrun`` from the height-0 cell at the far end."""
        return MotzkinWord(unrun(origin(self.L), steps, (0, 0), self.delta_inv, OutOfLattice)[1])

    # -- bicolored extensions ------------------------------------------------

    def delta_bar(self, z, cell, step):
        """Reverse table: evaluate at the mirror point, emit a backward step.

        Mirroring swaps the first two coordinates; the cell set is symmetric
        under that swap, so the cell carries over unchanged.
        """
        x1, x2, x3 = z
        j, cell2 = self.delta((x2, x1, x3), cell, step)
        return -(4 - j), cell2

    def bicolored_to_generic(self, word, method="two"):
        """Send a bicolored Motzkin word to a walk whose direction vector
        matches the coloring (black reads F, white reads B).

        Method one maps the uncolored word forward and then transports the
        result to the color-derived direction vector. Method two runs the
        table directly, using the reverse table on white letters; it stays
        linear in the length.
        """
        if isinstance(word, str):
            word = MotzkinWord.from_word(word)
        dv = word.direction_vector()
        if method == "one":
            from .flips import transform

            fwd = self.motzkin_to_triangular(MotzkinWord(word.steps))
            return transform(fwd, dv)
        if method != "two":
            raise ValueError(f"unknown method {method!r}")
        return self._run(zip(word.steps, word.colors or "b" * len(word)), self._colored)

    def _colored(self, z, cell, letter):
        """Method two's lookup of a (step, color) letter."""
        ch, col = letter
        return self.delta(z, cell, ch) if col == "b" else self.delta_bar(z, cell, ch)

    def _run(self, letters, lookup):
        """``run`` from the origin's height-0 cell, with amplitude errors."""
        try:
            return run(origin(self.L), (0, 0), letters, lookup)[0]
        except NotAllowed:
            raise AmplitudeExceeded(f"word does not fit in a triangle of side {self.L}") from None
        except OutOfLattice:
            raise AmplitudeExceeded(f"left the triangle of side {self.L}") from None


class RandomScaffolding(Scaffolding):
    """Materialized tables chosen uniformly at random per height class.

    ``tables[z]`` maps each (cell, step) of A(z) to its (forward step index,
    target cell). Built from a seed, the tables are a function of (L, seed)
    alone: points are taken in ``all_points`` order and, per point, heights
    upwards; each height class lists its sources U, F, D by cell and its
    targets by neighbour j and cell, then ``rng.shuffle`` permutes the
    targets.

    The entries are shared: the tables of one scaffolding hold one key
    tuple per distinct (cell, step) and one target tuple per distinct
    (j, cell), a few hundred per L in place of one pair per entry (28,119
    entries at L = 25). A built scaffolding takes them from one row per
    height, a loaded one from a memo kept for that load only, and
    ``inverse`` reuses them. Sharing changes no table, lookup or file byte.

    ``dumps`` writes (``dump`` to an open file, point by point), and
    ``loads`` reads (``load`` from an open file), a JSON document with
    sorted keys::

        {"L": <int>, "seed": <the seed or null>,
         "tables": {"<x1>,<x2>,<x3>": [record, ...], ...}}

    with one record per table entry, sorted by (cell, step)::

        {"cell": [f, l], "out_cell": [f', l'], "out_step": "s<j>", "step": "<U|F|D>"}

    ``load`` and ``loads`` read a well-formed document point by point:
    ``load`` takes the file ``_CHUNK`` characters at a time, and each
    point's list of records becomes that point's table as soon as it is
    parsed, so a valid file's text and a parse of the whole document are
    never held; the read keeps the tables, the memo and the text of about
    one chunk. At the first thing this scan does not read (a syntax error, a
    byte that is not UTF-8, a bad record, key or L, trailing data) they read
    the text again whole, ``load`` from where ``fh`` stood, and return
    ``from_json(json.loads(text))``: a refused file is held whole and
    refused with the reference's own error. So they accept and refuse the
    same documents as ``from_json(json.loads(text))``, with the same errors:
    any whitespace, key order or escapes, the last of repeated keys, nothing
    but whitespace after the document. ``from_json`` converts the records of
    a parsed document by the same per-point builder. ``L`` must be an
    int >= 0 (not a bool), every key a point of the triangle of side L, and
    every record must have a step in U, F, D, an out_step in s1, s2, s3 and
    cells that are pairs of integers, or ValueError is raised (KeyError for
    a missing field). A record that breaks the bijection (two records onto
    one target, say) is read as written, so that ``validate_scaffolding``
    can report it. ``inverse`` is built on the first ``delta_inv`` call.
    """

    def __init__(self, L, seed=None, tables=None):
        if L < 0:
            raise ValueError(f"need L >= 0, got L={L}")
        super().__init__()
        self.L = L
        self.seed = seed
        if tables is None:
            rng = random.Random(seed)
            # one shared key ((f, l), step) and one shared target (j, (f, l))
            # per cell of height f = 0..L // 2 + 1 (a D step reads one height
            # above the class, where no cell lies); a point's table takes
            # slices of these rows, so it holds no tuple of its own
            heights = range(L // 2 + 2)
            cells = [[(f, l) for l in range(f + 1)] for f in heights]
            key_rows = {ch: [[(c, ch) for c in row] for row in cells] for ch in ("U", "F", "D")}
            target_rows = {j: [[(j, c) for c in row] for row in cells] for j in (1, 2, 3)}
            allowed = [allowed_steps(f, L) for f in heights]
            tables = {z: self._build_point(z, key_rows, target_rows, allowed, rng)
                      for z in all_points(L, 2)}
        self.tables = tables

    def _build_point(self, z, key_rows, target_rows, allowed, rng):
        nbs = [(target_rows[j], w) for j, w in forward_neighbours(z).items() if min(w) >= 0]
        table = {}
        for h in range(self.L // 2 + 1):
            sources = []
            for ch in ("U", "F", "D"):
                f = h - _HEIGHT_MOVE[ch]
                if 0 <= f and ch in allowed[f]:
                    sources += _at_cells(key_rows[ch][f], z, f)
            targets = [t for rows, w in nbs for t in _at_cells(rows[h], w, h)]
            if len(sources) != len(targets):
                raise AssertionError(
                    f"height class size mismatch at z={z}, h={h}: "
                    f"{len(sources)} vs {len(targets)}"
                )
            rng.shuffle(targets)
            table.update(zip(sources, targets))
        return table

    @functools.cached_property
    def inverse(self):
        """tables inverted per point; built on the first ``delta_inv`` call."""
        return {z: {v: k for k, v in tab.items()} for z, tab in self.tables.items()}

    def delta(self, z, cell, step):
        self.lookup_count += 1
        try:
            return self.tables[z][(cell, step)]
        except KeyError:
            raise NotAllowed(f"({cell}, {step}) not in A({z})") from None

    def delta_inv(self, z, j, cell):
        self.lookup_count += 1
        try:
            return self.inverse[z][(j, cell)]
        except KeyError:
            raise NotAllowed(f"({j}, {cell}) has no preimage at {z}") from None

    # -- serialization -------------------------------------------------------

    def to_json(self):
        tables = {}
        for z, tab in self.tables.items():
            recs = []
            for (cell, ch), (j, cell2) in sorted(tab.items()):
                recs.append(
                    {
                        "cell": list(cell),
                        "step": ch,
                        "out_step": f"s{j}",
                        "out_cell": list(cell2),
                    }
                )
            tables[",".join(map(str, z))] = recs
        return {"L": self.L, "seed": self.seed, "tables": tables}

    @classmethod
    def from_json(cls, doc):
        share = {}.setdefault  # one object per distinct key and target, for this load
        return cls._assemble(doc, lambda key, recs: _table(key, recs, share))

    @classmethod
    def _assemble(cls, doc, table):
        """The scaffolding of a parsed document, with ``table(key, value)``
        the table of the point keyed ``key``; L and each key are checked
        before that point's table is asked for."""
        L = doc["L"]
        if type(L) is not int or L < 0:
            raise ValueError(f"L is {L!r}, not an int >= 0")
        tables = {}
        for key, value in doc["tables"].items():
            z = tuple(int(t) for t in key.split(","))
            if len(z) != 3 or min(z) < 0 or sum(z) != L:
                raise ValueError(f"table {key} is not a point of the triangle of side {L}")
            tables[z] = table(key, value)
        return cls(L, seed=doc.get("seed"), tables=tables)

    def _chunks(self):
        """The text of ``dumps``, one chunk per point between its head and tail."""
        yield f'{{"L": {json.dumps(self.L)}, "seed": {json.dumps(self.seed)}, "tables": {{'
        sep = ""
        for key, tab in sorted((",".join(map(str, z)), tab) for z, tab in self.tables.items()):
            yield sep + f'"{key}": [' + ", ".join(
                f'{{"cell": [{f}, {l}], "out_cell": [{f2}, {l2}], '
                f'"out_step": "s{j}", "step": "{ch}"}}'
                for ((f, l), ch), (j, (f2, l2)) in sorted(tab.items())
            ) + "]"
            sep = ", "
        yield "}}"

    def dump(self, fh):
        """Write ``dumps()`` to the text file ``fh``, one point at a time."""
        fh.writelines(self._chunks())

    def dumps(self):
        """``json.dumps(self.to_json(), sort_keys=True)``, built point by point."""
        return "".join(self._chunks())

    @classmethod
    def load(cls, fh):
        """Read the text file ``fh`` from where it stands, ``_CHUNK``
        characters at a time; ``fh`` must be seekable."""
        start = fh.tell()
        try:
            return cls._scan("", fh.read)
        except _UNREAD:
            pass
        # re-read after the except block, whose traceback holds the scan's text
        fh.seek(start)
        return cls.from_json(json.loads(fh.read()))

    @classmethod
    def loads(cls, text):
        try:
            return cls._scan(text, None)
        except _UNREAD:
            pass
        return cls.from_json(json.loads(text))

    @classmethod
    def _scan(cls, text, read):
        """Read a well-formed document point by point: ``text``, then what
        ``read(size)`` returns until it returns "" (no ``read``: ``text`` is
        all of it).

        Only the top-level object and its ``"tables"`` object are scanned
        here; every other value goes to the JSON parser, and each point's
        list becomes that point's table as soon as it is parsed. Anything
        else raises one of ``_UNREAD``: a syntax error, a byte that is not
        UTF-8, a bad record, key or L, trailing data. ``load`` and ``loads``
        then read the text whole, by ``from_json(json.loads(text))``.
        """
        src = _Reader(text, read)
        doc, share = {}, {}.setdefault
        for key in src.members():
            if key == "tables" and src.char() == "{":
                doc[key] = tables = {}
                for point in src.members():
                    tables[point] = _table(point, src.value(), share)
            else:
                doc[key] = src.value()
        if src.char():
            raise ValueError("Extra data")
        return cls._assemble(doc, lambda key, table: table)


# the errors on which ``RandomScaffolding._scan`` gives up and the text is
# read whole; UnicodeDecodeError and json.JSONDecodeError are ValueErrors
_UNREAD = (KeyError, TypeError, AttributeError, ValueError, RecursionError)

# (step, out_step) of a valid record -> the forward step index j
_STEP_PAIRS = {(step, f"s{j}"): j for step in "UFD" for j in (1, 2, 3)}


def _table(key, recs, share):
    """The table of the point keyed ``key`` from its list of records, with
    one ``share`` per load (see ``_record``)."""
    if type(recs) is not list:
        raise ValueError(f"table {key} is not a list of records")
    return dict([_record(rec, share) for rec in recs])


def _record(rec, share):
    """The table entry ((cell, step), (j, out_cell)) of one file record, with
    the key and the target that ``share`` (a ``dict.setdefault``) holds for
    them, so that equal keys and equal targets are one object."""
    cell, step, out_step, out_cell = rec["cell"], rec["step"], rec["out_step"], rec["out_cell"]
    try:
        (f, l), (f2, l2) = cell, out_cell
        j = _STEP_PAIRS[step, out_step]
    except (TypeError, ValueError, KeyError):
        j = None
    if j is None or not (type(f) is int and type(l) is int and type(f2) is int and type(l2) is int):
        raise ValueError(_record_error(rec))
    key, target = ((f, l), step), (j, (f2, l2))
    return share(key, key), share(target, target)


def _is_cell(value):
    """Whether ``value`` unpacks into two ints, as ``_record`` reads a cell."""
    try:
        f, l = value
    except (TypeError, ValueError):
        return False
    return type(f) is int and type(l) is int


def _record_error(rec):
    """Why ``_record`` rejects ``rec``: its first field outside the schema."""
    step, out_step = rec["step"], rec["out_step"]
    if type(step) is not str or step not in ("U", "F", "D"):
        return f"step {step!r} is not U, F or D"
    if type(out_step) is not str or out_step not in ("s1", "s2", "s3"):
        return f"out_step {out_step!r} is not s1, s2 or s3"
    field = "cell" if not _is_cell(rec["cell"]) else "out_cell"
    return f"{field} {rec[field]!r} is not a pair of integers"


# characters that ``RandomScaffolding.load`` reads at a time
_CHUNK = 1 << 16


class _Reader:
    """A JSON text, ``text`` and then what ``read(size)`` returns, of which
    only the part not yet parsed is kept: ``buf`` from index ``pos`` on.
    What it cannot read raises ValueError, whose text no caller shows."""

    def __init__(self, text, read):
        self.buf, self.pos, self.read = text, 0, read
        self.space = json.decoder.WHITESPACE.match
        self.decode = json.JSONDecoder().raw_decode

    def more(self):
        """Read the next chunk, at least as long as the unparsed text, and
        drop the parsed text; False at the end of the file."""
        if self.read is None:
            return False
        chunk = self.read(max(_CHUNK, len(self.buf) - self.pos))
        if not chunk:
            self.read = None
            return False
        self.buf, self.pos = self.buf[self.pos:] + chunk, 0
        return True

    def char(self):
        """The next character that is not whitespace, "" at the end; ``pos`` moves to it."""
        while True:
            self.pos = self.space(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.buf[self.pos:self.pos + 1]

    def value(self):
        """The JSON value at ``pos``, reading on while it may be cut short;
        ``pos`` moves past it."""
        if len(self.buf) - self.pos < _CHUNK // 2:
            # read ahead, so that a value shorter than half a chunk is never cut
            self.more()
        while True:
            try:
                value, end = self.decode(self.buf, self.pos)
            except (ValueError, RecursionError):
                if self.more():
                    continue
                raise
            # a number cut short may go on past a ".", "e" or "e+" that
            # the parser leaves behind
            if end + 2 < len(self.buf) or not self.more():
                self.pos = end
                return value

    def members(self):
        """Yield each key of the object at ``pos``, with ``pos`` at its value,
        which the caller reads before the next key."""
        if self.char() != "{":
            raise ValueError("Expecting '{'")
        self.pos += 1
        c = self.char()
        if c == "}":
            self.pos += 1
            return
        while True:
            if c != '"':
                raise ValueError("Expecting property name enclosed in double quotes")
            key = self.value()
            if self.char() != ":":
                raise ValueError("Expecting ':' delimiter")
            self.pos += 1
            self.char()
            yield key
            c = self.char()
            if c == "}":
                self.pos += 1
                return
            if c != ",":
                raise ValueError("Expecting ',' delimiter")
            self.pos += 1
            c = self.char()


def _at_cells(row, z, f):
    """The entries of ``row``, one per cell (f, l) for l = 0..f, at the cells
    of z at height f."""
    lo, hi = cell_bounds(z, f)
    return row[lo:hi + 1] if lo <= hi else ()


def build_random_scaffolding(L, seed):
    return RandomScaffolding(L, seed)


# -- the canonical rule-based scaffolding ------------------------------------

def trapezium_rule(x1, x2, f, l, step):
    """Evaluate the canonical table at one (cell, step) pair.

    Returns (forward step index, new cell, case id). The twelve cases split
    by the step letter and by where the cell sits inside its trapezium:
    t = f + l measures the distance to the top anti-diagonal,
    l against x1, x2 detects the side walls, l = f the lower diagonal.

    Case images, writing (f', l') for the output cell:
      into C(z + s1): 2 and 3 cover f' + l' = x1 + x2 + 1 (3 is its l' = 0
      tip), 9 covers f' + l' = x1 + x2 with l' <= x1, 11 the column
      l' = x1 + 1 below that anti-diagonal, 8 the remaining bulk;
      into C(z + s2): 1 is the single cell (x1, x2), 4 the anti-diagonal
      l' = x1 + x2 - f' with l' < x2, 5 the column l' = x2 + 1, 7 the
      diagonal l' = f' < x2, 10 the bulk plus the corner l' = f' = x2;
      into C(z + s3): 12 is the diagonal l' = f', 6 everything below it.

    Only x1, x2, f, l and the letter are ever read, so one rule set serves
    every triangle size; that independence is what makes the image of a
    Motzkin path land in the smallest triangle its amplitude allows.
    """
    a, b, t = x1, x2, f + l
    if step == "U":
        if t == a + b:
            return (1, (f + 1, l), 2 if l >= 1 else 3)
        if t == a + b - 1:
            if l == b:
                return (2, (f + 1, l), 1)
            if l == a:
                return (1, (f + 1, l + 1), 2)
            return (2, (f + 1, l), 4)
        if l == b:
            return (2, (f + 1, l + 1), 5)
        return (3, (f + 1, l), 6)
    if step == "F":
        if t == a + b:
            return (1, (f, l), 9)
        if l == a and l < f:
            return (1, (f, l + 1), 11)
        if l == f:
            if f == a:
                return (3, (f, l), 12)
            return (2, (f, l), 7 if f <= b - 1 else 10)
        return (2, (f, l), 10)
    if step == "D":
        if l == f:
            return (3, (f - 1, l - 1), 12)
        return (1, (f - 1, l), 8)
    raise NotAllowed(f"unknown step {step!r}")


class TrapeziumScaffolding(Scaffolding):
    """The rule-based scaffolding; no tables, only the steps usable per height."""

    def __init__(self, L):
        super().__init__()
        self.L = L
        self._steps = [allowed_steps(f, L) for f in range(L // 2 + 1)]

    def _domain_error(self, z, f, l, step):
        """Why (cell, step) = ((f, l), step) is not in A(z), or None if it is."""
        lo, hi = cell_bounds(z, f)
        if not lo <= l <= hi:
            return f"cell {(f, l)} not in C({z})"
        # a cell of a point off level L may sit above height L // 2
        if not 0 <= f < len(self._steps) or step not in self._steps[f]:
            return f"step {step} not allowed at height {f} for L={self.L}"
        return None

    def _lookup(self, z, cell, step):
        """(j, cell2) by ``trapezium_rule``, or NotAllowed unless (cell, step)
        is in A(z) for z = (x1, x2, x3): the cell lies in C(z),
        max(0, f - x3) <= l <= min(f, x1, x2, x1 + x2 - f), and the step is
        usable at its height. This is the one test of the domain;
        ``_domain_error`` says why not. Every call counts one lookup, refused
        or not, as in ``RandomScaffolding``."""
        self.lookup_count += 1
        x1, x2, x3 = z
        f, l = cell[0], cell[1]
        steps = self._steps
        if not (0 <= l <= f and f - x3 <= l <= x1 and l <= x2 and l <= x1 + x2 - f
                and f < len(steps) and step in steps[f]):
            raise NotAllowed(self._domain_error(z, f, l, step))
        j, cell2, _case = trapezium_rule(x1, x2, f, l, step)
        return j, cell2

    # ``delta_inv`` checks its candidate by ``_lookup`` under its own name, so
    # that an inverse is one lookup even where ``delta`` is wrapped or
    # overridden; an override of ``delta`` does not change ``delta_inv``
    delta = _lookup

    def case(self, z, cell, step):
        err = self._domain_error(z, cell[0], cell[1], step)
        if err is not None:
            raise NotAllowed(err)
        return trapezium_rule(z[0], z[1], cell[0], cell[1], step)[2]

    def delta_inv(self, z, j, cell):
        """Invert the case partition of ``trapezium_rule`` in closed form.

        The step j and the output cell (f', l') single out the one case that
        can produce them; with a, b = x1, x2:

          j = 1: f' + l' = a + b + 1 undoes cases 2 and 3 (U; the cell
            index also moved up by one when l' > a, the branch of case 2
            that starts at l = a); f' + l' = a + b with l' <= a undoes 9
            (F, same cell); the column l' = a + 1 undoes 11 (F from
            l = a); everything else undoes 8 (D).
          j = 2: the cell (a, b) undoes 1 (U); the column l' = b + 1
            undoes 5 (U from l = b); the anti-diagonal f' + l' = a + b
            undoes 4 (U); everything else undoes 7 and 10 (F, same cell).
          j = 3: l' < f' undoes 6 (U); otherwise f' = a undoes the flat
            branch of 12 (the cell (a, a)) and every other f' its down
            branch (D from (f' + 1, l' + 1)).

        Any other j has no preimage. ``_lookup`` of the candidate, the one
        lookup of the call, must give back (j, cell): the candidate is in A(z)
        and maps there; otherwise (j, cell) is not in the image of A(z) and
        NotAllowed is raised. Every call counts one lookup, refused or not,
        as in ``RandomScaffolding``.
        """
        a, b, _ = z
        f2, l2 = cell
        if j == 1:
            if f2 + l2 == a + b + 1:
                f, l, ch = f2 - 1, (l2 if l2 <= a else l2 - 1), "U"
            elif f2 + l2 == a + b and l2 <= a:
                f, l, ch = f2, l2, "F"
            elif l2 == a + 1:
                f, l, ch = f2, a, "F"
            else:
                f, l, ch = f2 + 1, l2, "D"
        elif j == 2:
            if f2 == a and l2 == b:
                f, l, ch = a - 1, b, "U"
            elif l2 == b + 1:
                f, l, ch = f2 - 1, b, "U"
            elif f2 + l2 == a + b:
                f, l, ch = f2 - 1, l2, "U"
            else:
                f, l, ch = f2, l2, "F"
        elif j == 3:
            if l2 < f2:
                f, l, ch = f2 - 1, l2, "U"
            elif f2 == a:
                f, l, ch = f2, l2, "F"
            else:
                f, l, ch = f2 + 1, l2 + 1, "D"
        else:
            self.lookup_count += 1  # no candidate to look up
            raise NotAllowed(f"({j}, {cell}) has no preimage at {z}")
        try:
            image = self._lookup(z, (f, l), ch)
        except NotAllowed:
            image = None
        if image == (j, cell):
            return (f, l), ch
        raise NotAllowed(f"({j}, {cell}) has no preimage at {z}")


def trapezium_scaffolding(L):
    return TrapeziumScaffolding(L)


def trapezium_delta(z, cell, step, L=None):
    """Convenience wrapper returning (forward step, cell) for one lookup."""
    scaf = TrapeziumScaffolding(sum(z) if L is None else L)
    return scaf.delta(z, cell, step)


def validate_scaffolding(scaf):
    """Certify a scaffolding pointwise by ``profiles.certify``: domain,
    bijectivity, ``delta_inv`` and the height rule."""
    return certify(f"scaffolding valid, L={scaf.L}", scaf.L, 2, cell_representation,
                   lambda z, cell: allowed_steps(cell[0], scaf.L), scaf.delta, scaf.delta_inv,
                   lambda z, cell, ch, j, cell2: cell2[0] == cell[0] + _HEIGHT_MOVE[ch])


def sample_forward_path(L, n, seed=None, rng=None):
    """Uniform forward walk from the origin, without fixing any scaffolding.

    Draw a uniform bounded Motzkin path, then run the transducer while
    choosing, at each letter, uniformly among all neighbour cells at the
    required height. Averaging over those choices makes every forward walk
    exactly equally likely.
    """
    # checked here: uniform_sample would report L < 0 as a bad start height
    if n < 0 or L < 0:
        raise ValueError(f"need n, L >= 0, got n={n}, L={L}")
    if rng is None:
        rng = random.Random(seed)
    try:
        word = uniform_sample(n, L, rng=rng)
    except EmptySet:
        # raised before any draw, so the rng is untouched
        raise EmptySet(
            f"no forward walks of length {n} in a triangle of side {L}"
        ) from None
    z = origin(L)
    h = 0
    steps = []
    for ch in word.steps:
        h += _HEIGHT_MOVE[ch]
        # one draw among the cells at height h of the neighbours, listed by
        # (j, index); only the neighbour it falls in matters
        total, sizes = _cells_above(z, h)
        pick = rng.randrange(total)
        for j, w, size in sizes:
            if pick < size:
                break
            pick -= size
        steps.append(j)
        z = w
    return tuple(steps)


@functools.lru_cache(maxsize=2048)
def _cells_above(z, h):
    """The number of cells at height h of the neighbours of z in the
    triangle, and the triples (j, z + s_j, their cells there) by increasing j.

    A neighbour off the triangle has no cells, so leaving it out changes no
    draw. Cached per (z, h), as ``_neighbours_in_triangle`` is per point; an
    entry takes about 600 bytes, so the cache stays near 1 MB.
    """
    total, sizes = 0, []
    for j, w in _neighbours_in_triangle(z):
        lo, hi = cell_bounds(w, h)
        size = max(hi - lo + 1, 0)
        total += size
        sizes.append((j, w, size))
    return total, tuple(sizes)


@functools.lru_cache(maxsize=4096)
def _neighbours_in_triangle(z):
    """The pairs (j, z + s_j) that stay in the triangle of z, by increasing j.

    Cached per point rather than built per side, so that a short walk in a
    large triangle costs no more than the points it visits.
    """
    targets = [(j, move(z, j)) for j in (1, 2, 3)]
    return tuple((j, w) for j, w in targets if min(w) >= 0)
