import io
import itertools
import json
import random
import re

import pytest

from triwalks import flips, lattice, motzkin, profiles, scaffold2d
from triwalks.errors import EmptySet, NotAllowed, OutOfLattice
from triwalks.motzkin import MotzkinWord
from triwalks.scaffold2d import RandomScaffolding, TrapeziumScaffolding

from conftest import brute_forward


def test_allowed_steps():
    assert motzkin.allowed_steps(0, 3) == ("U", "F")
    assert motzkin.allowed_steps(2, 4) == ("D",)       # top height, even L
    assert motzkin.allowed_steps(1, 3) == ("F", "D")   # top height, odd L
    assert motzkin.allowed_steps(0, 0) == ()


def test_random_scaffolding_valid_and_deterministic():
    for L in range(6):
        for seed in (0, 1):
            scaf = RandomScaffolding(L, seed)
            rep = scaffold2d.validate_scaffolding(scaf)
            assert rep.ok, rep.violations[:3]
    assert RandomScaffolding(4, 9).dumps() == RandomScaffolding(4, 9).dumps()
    assert RandomScaffolding(0, 0).tables == {(0, 0, 0): {}}


def test_random_scaffolding_json_round_trip():
    scaf = RandomScaffolding(4, 123)
    clone = RandomScaffolding.loads(scaf.dumps())
    assert clone.tables == scaf.tables
    w = motzkin.uniform_sample(6, 4, seed=7)
    assert clone.motzkin_to_triangular(w) == scaf.motzkin_to_triangular(w)


def _reference_tables(L, seed):
    """The tables built the direct way, looking cells up per source and per
    target, with one ``rng.shuffle`` per point and height."""
    rng = random.Random(seed)
    tables = {}
    for z in lattice.all_points(L, 2):
        nbs = lattice.forward_neighbours(z)
        table = {}
        for h in range(L // 2 + 1):
            sources = []
            for ch in ("U", "F", "D"):
                f = h - motzkin._HEIGHT_MOVE[ch]
                if 0 <= f and ch in motzkin.allowed_steps(f, L):
                    sources.extend((c, ch) for c in profiles.cells_at_height(z, f))
            targets = []
            for j in (1, 2, 3):
                if min(nbs[j]) >= 0:
                    targets.extend((j, c) for c in profiles.cells_at_height(nbs[j], h))
            rng.shuffle(targets)
            table.update(zip(sources, targets))
        tables[z] = table
    return tables


def test_random_tables_make_the_reference_draws():
    for L in range(13):
        for seed in (0, 1, 7, "x"):
            assert RandomScaffolding(L, seed).tables == _reference_tables(L, seed), (L, seed)


def test_dumps_is_the_sorted_json_of_to_json():
    for L in range(13):
        for seed in (0, 1, 7, None):
            scaf = RandomScaffolding(L, seed)
            text = scaf.dumps()
            assert text == json.dumps(scaf.to_json(), sort_keys=True), (L, seed)
            clone = RandomScaffolding.loads(text)
            assert clone.seed == scaf.seed and clone.dumps() == text


def test_scaffolding_file_bytes_are_pinned():
    import hashlib

    text = RandomScaffolding(25, 1).dumps()
    assert len(text) == 1951454
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "372a45f4b8305dbbde3a12d45cc3bad7ad6a046e6ec86a0bc69fad7ad37d2669"
    )


def test_cli_writes_the_pinned_file(tmp_path, capsys):
    import hashlib

    from triwalks import cli

    path = tmp_path / "scaffolding.json"
    assert cli.main(["scaffolding", "--L", "25", "--seed", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    assert len(data) == 1951454
    assert hashlib.sha256(data).hexdigest() == (
        "372a45f4b8305dbbde3a12d45cc3bad7ad6a046e6ec86a0bc69fad7ad37d2669"
    )


def _shared(tables):
    """Whether equal keys are one object and equal targets are one object
    across all of ``tables``."""
    keys = [k for tab in tables.values() for k in tab]
    targets = [t for tab in tables.values() for t in tab.values()]
    return (len({id(k) for k in keys}) == len(set(keys))
            and len({id(t) for t in targets}) == len(set(targets)))


@pytest.mark.parametrize("L", [0, 3, 12, 25])
def test_tables_share_one_object_per_key_and_target(L):
    scaf = RandomScaffolding(L, 1)
    loaded = RandomScaffolding.loads(scaf.dumps())
    parsed = RandomScaffolding.from_json(scaf.to_json())
    for s in (scaf, loaded, parsed):
        assert s.tables == scaf.tables
        assert _shared(s.tables) and _shared(s.inverse), L


def test_inverse_is_built_on_the_first_delta_inv():
    scaf = RandomScaffolding(7, 3)
    word = motzkin.uniform_sample(30, 7, seed=2)
    path = scaf.motzkin_to_triangular(word)
    assert "inverse" not in vars(scaf)
    assert scaf.triangular_to_motzkin(path) == word
    assert "inverse" in vars(scaf)  # built once, not per lookup
    assert scaf.inverse == {
        z: {v: k for k, v in tab.items()} for z, tab in scaf.tables.items()
    }
    # the certificate reads delta_inv too, so it runs after the assertions above
    assert scaffold2d.validate_scaffolding(scaf).ok


def test_loads_and_from_json_read_the_same_tables():
    for L, seed in ((0, 0), (1, 2), (6, 5), (13, 1)):
        text = RandomScaffolding(L, seed).dumps()
        a = RandomScaffolding.loads(text)
        b = RandomScaffolding.from_json(json.loads(text))
        assert a.tables == b.tables and (a.L, a.seed) == (b.L, b.seed) == (L, seed)
        for tab in a.tables.values():
            for ((f, l), ch), (j, (f2, l2)) in tab.items():
                assert all(type(t) is int for t in (f, l, j, f2, l2)) and ch in ("U", "F", "D")


def test_loads_converts_each_record_while_parsing():
    import tracemalloc

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # parsing first and converting after holds every record dict at once,
    # about twice the memory (0.45 of it at L = 8, 12 and 25)
    text = RandomScaffolding(12, 1).dumps()
    one_pass = peak(lambda: RandomScaffolding.loads(text))
    two_passes = peak(lambda: RandomScaffolding.from_json(json.loads(text)))
    assert one_pass < 0.6 * two_passes


def _read_outcome(read):
    """What a reader gives: (L, seed, tables), or the type and text of the
    error it raises."""
    try:
        scaf = read()
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return type(exc), str(exc)
    return scaf.L, scaf.seed, scaf.tables


def _not_called(doc):
    raise AssertionError("the document was read again whole")


def test_load_and_loads_read_as_json_loads_and_from_json():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200)
    @given(st.data())
    def one_document(data):
        L, seed = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 3))
        doc = RandomScaffolding(L, seed).to_json()
        points = data.draw(st.permutations(list(doc["tables"])))
        doc["tables"] = {key: doc["tables"][key] for key in points}
        if data.draw(st.booleans()):
            note = [None, 1.5, "x", [{"cell": 1}], {"tables": []}]
            doc["note"] = data.draw(st.sampled_from(note))
        doc = {key: doc[key] for key in data.draw(st.permutations(list(doc)))}
        separators = [None, (",", ":"), (" ,\n", " :\r")]
        text = json.dumps(doc, indent=data.draw(st.sampled_from([None, 0, 2, "\t"])),
                          separators=data.draw(st.sampled_from(separators)),
                          ensure_ascii=data.draw(st.booleans()))
        # one point key escaped, or repeated before itself with a value that
        # the later one replaces; one character replaced; or a "tables"
        # member before the real one, which replaces it
        key = json.dumps(data.draw(st.sampled_from(points)))
        edit = data.draw(st.sampled_from(["escape", "repeat", "char", "tables", None]))
        value = None
        if edit == "escape":
            text = text.replace(key, f'"\\u{ord(key[1]):04x}{key[2:]}', 1)
        elif edit == "repeat":
            value = data.draw(st.sampled_from(["[]", "[5]", '{"a": [}]', "null"]))
            text = text.replace(key, f"{key}: {value}, {key}", 1)
        elif edit == "char":
            at = data.draw(st.integers(0, len(text) - 1))
            text = text[:at] + data.draw(st.sampled_from('{}[]:,"0 x-.e')) + text[at + 1:]
        elif edit == "tables":
            extra = data.draw(st.sampled_from(["[]", "{}", f"{{{key}: []}}"]))
            text = re.sub(r'"tables"(?=\s*:\s*\{)', f'"tables": {extra}, "tables"', text, count=1)
        end = data.draw(st.sampled_from(["cut", "junk", None]))
        if end == "cut":
            text = text[:data.draw(st.integers(0, len(text)))]
        elif end == "junk":
            text += data.draw(st.sampled_from([" \n", "x", " {}", "]", " 0"]))
        expected = _read_outcome(lambda: RandomScaffolding.from_json(json.loads(text)))
        with pytest.MonkeyPatch.context() as mp:
            # a document that the reference accepts is read by the scan alone,
            # without the reference, unless a point's value that a later one
            # replaces is no table
            if type(expected[0]) is int and value not in ("[5]", "null"):
                mp.setattr(RandomScaffolding, "from_json", _not_called)
            assert _read_outcome(lambda: RandomScaffolding.loads(text)) == expected
            # a chunk of 1..64 characters, so that points straddle chunks
            mp.setattr(scaffold2d, "_CHUNK", data.draw(st.integers(1, 64)))
            assert _read_outcome(lambda: RandomScaffolding.load(io.StringIO(text))) == expected

    one_document()


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_load_reads_on_from_where_the_file_stands(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(scaffold2d, "_CHUNK", chunk)
    lead = "leading text, \u00e9 \n"
    valid = RandomScaffolding(3, 5).dumps()
    for rest, how in ((valid, "scan"), (valid[:-40] + "x" + valid[-39:], "syntax"),
                      (valid.replace('"seed"', '"L": -1, "seed"'), "L")):
        path = tmp_path / "scaffolding.json"
        path.write_text(lead + rest, encoding="utf-8")
        expected = _read_outcome(lambda: RandomScaffolding.from_json(json.loads(rest)))
        assert (type(expected[0]) is int) == (how == "scan")
        with open(path, encoding="utf-8") as fh:
            assert fh.read(len(lead)) == lead
            assert _read_outcome(lambda: RandomScaffolding.load(fh)) == expected
        fh = io.StringIO(lead + rest)
        fh.read(len(lead))
        assert _read_outcome(lambda: RandomScaffolding.load(fh)) == expected
    # a byte that is not UTF-8, past the buffer that the first read decodes,
    # is named at its place after the read text
    data = RandomScaffolding(12, 1).dumps().encode()
    path.write_bytes(lead.encode() + data[:100_000] + b"\xff" + data[100_000:])
    with open(path, encoding="utf-8") as fh:
        fh.read(len(lead))
        with pytest.raises(UnicodeDecodeError, match="byte 0xff in position 100000:"):
            RandomScaffolding.load(fh)


def test_load_of_a_file_peaks_below_its_size(tmp_path):
    import tracemalloc

    path = tmp_path / "scaffolding.json"
    with open(path, "w", encoding="utf-8") as fh:
        RandomScaffolding(25, 1).dump(fh)
    assert path.stat().st_size == 1_951_454
    # reading the whole text first holds its 1.95 MB, and parsing it whole
    # about 2.7 MiB more
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            scaf = RandomScaffolding.load(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scaf.tables) == 351 and peak < path.stat().st_size


# one malformed field of one record; each makes both readers raise ValueError
BAD_RECORD_FIELDS = {
    "step-X": ("step", "X"),
    "step-UF": ("step", "UF"),
    "step-list": ("step", ["U"]),
    "out-step-s-1": ("out_step", "s-1"),
    "out-step-s9": ("out_step", "s9"),
    "out-step-int": ("out_step", 1),
    "cell-short": ("cell", [0]),
    "cell-long": ("cell", [0, 0, 0]),
    "cell-float": ("cell", [0, 0.0]),
    "cell-bool": ("cell", [False, 0]),
    "cell-str": ("cell", "00"),
    "out-cell-short": ("out_cell", [1]),
    "out-cell-str": ("out_cell", ["1", "0"]),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORD_FIELDS) + ["table-one-record"])
def test_malformed_records_are_rejected(case):
    doc = RandomScaffolding(3, 5).to_json()
    if case == "table-one-record":
        # one record in place of the table's list; the parser of loads turns
        # it into a pair of pairs, which dict() would read as two entries
        doc["tables"]["0,0,3"] = doc["tables"]["0,0,3"][0]
        blamed = "^table 0,0,3 "
    else:
        field, value = BAD_RECORD_FIELDS[case]
        doc["tables"]["0,0,3"][0][field] = value
        blamed = f"^{field} "
    with pytest.raises(ValueError, match=blamed):
        RandomScaffolding.loads(json.dumps(doc))
    with pytest.raises(ValueError, match=blamed):
        RandomScaffolding.from_json(doc)


def test_validate_catches_corruption():
    scaf = RandomScaffolding(3, 5)
    doc = scaf.to_json()
    recs = doc["tables"]["0,0,3"]
    assert recs
    # map two inputs onto one output
    recs[0]["out_step"] = recs[-1]["out_step"]
    recs[0]["out_cell"] = recs[-1]["out_cell"]
    broken = RandomScaffolding.from_json(doc)
    rep = scaffold2d.validate_scaffolding(broken)
    assert not rep.ok


def test_trapezium_valid_every_size():
    for L in range(8):
        rep = scaffold2d.validate_scaffolding(TrapeziumScaffolding(L))
        assert rep.ok, rep.violations[:3]


def test_certificate_checks_the_inverse_at_every_entry(monkeypatch):
    scaf = TrapeziumScaffolding(5)
    z, cell, ch = (1, 2, 2), (1, 1), "F"
    image = scaf.delta(z, cell, ch)
    closed_form = scaf.delta_inv

    def delta_inv(w, j, cell2):  # wrong at the one entry (z, image)
        back = closed_form(w, j, cell2)
        return ((0, 0), "U") if (w, (j, cell2)) == (z, image) else back

    monkeypatch.setattr(scaf, "delta_inv", delta_inv)
    rep = scaffold2d.validate_scaffolding(scaf)
    assert rep.violations == [(z, cell, ch, "inverse")]


def test_trapezium_case_conditions_pointwise():
    # the five cases into the first neighbour, five into the second, two
    # into the third, with their defining equalities
    for L in range(8):
        for z in lattice.all_points(L, 2):
            x1, x2, _ = z
            for f, l in profiles.cell_representation(z):
                for ch in motzkin.allowed_steps(f, L):
                    j, (f2, l2), case = scaffold2d.trapezium_rule(x1, x2, f, l, ch)
                    if case in (2, 3, 8, 9, 11):
                        assert j == 1
                    elif case in (1, 4, 5, 7, 10):
                        assert j == 2
                    else:
                        assert j == 3 and case in (6, 12)
                    if case == 6:
                        assert l2 <= f2 - 1
                    if case == 12:
                        assert l2 == f2
                    if case == 9:
                        assert l2 == x1 + x2 - f2 and l2 <= x1
                    if case == 2:
                        assert l2 == x1 + x2 + 1 - f2 and l2 >= 1


def test_trapezium_rules_ignore_size():
    # same (x1, x2, cell, step) in a triangle four sizes larger: same output
    for L in range(6):
        big = TrapeziumScaffolding(L + 4)
        small = TrapeziumScaffolding(L)
        for z in lattice.all_points(L, 2):
            zbig = (z[0], z[1], z[2] + 4)
            for cell in profiles.cell_representation(z):
                for ch in motzkin.allowed_steps(cell[0], L):
                    assert small.delta(z, cell, ch) == big.delta(zbig, cell, ch)


def test_trapezium_domain_errors():
    scaf = TrapeziumScaffolding(3)
    with pytest.raises(NotAllowed):
        scaf.delta((0, 0, 3), (1, 0), "U")  # cell not in C(z)
    with pytest.raises(NotAllowed):
        scaf.delta((0, 0, 3), (0, 0), "D")  # step not allowed at height 0


@pytest.mark.parametrize("scaf", [TrapeziumScaffolding(3), RandomScaffolding(3, 3)],
                         ids=["trapezium", "random"])
def test_inverse_names_the_first_bad_step(scaf):
    # the first step that is not forward is named, unless an earlier step
    # leaves the triangle
    for steps, why in (([1, 4], "bad step 4: a triangle walk takes forward steps 1-3"),
                       ([-1], "bad step -1: a triangle walk takes forward steps 1-3"),
                       (["a"], "bad step 'a': a triangle walk takes forward steps 1-3"),
                       ([1, 1, 1, 1, 4], "walk leaves the triangle"),
                       ([1, 0, 1, 1, 1], "bad step 0: a triangle walk takes forward steps 1-3"),
                       # equal to 1, but not the int step 1
                       ((True,), "bad step True: a triangle walk takes forward steps 1-3"),
                       ((1.0,), "bad step 1.0: a triangle walk takes forward steps 1-3")):
        with pytest.raises(OutOfLattice) as exc:
            scaf.triangular_to_motzkin(steps)
        assert str(exc.value) == why


def test_flat_word_image_is_the_corner_cycle():
    # the all-flat word hugs the corner: s1 s2 s3 repeating
    scaf = TrapeziumScaffolding(5)
    assert scaf.motzkin_to_triangular("F" * 7) == (1, 2, 3, 1, 2, 3, 1)


def test_round_trip_all_scaffoldings():
    for L in range(5):
        scafs = [TrapeziumScaffolding(L), RandomScaffolding(L, 0), RandomScaffolding(L, 1)]
        for n in range(7):
            words = motzkin.enumerate_meanders(n, L, 0)
            paths = set(lattice.enumerate_paths(L, 2, lattice.origin(L), "F" * n))
            for scaf in scafs:
                images = set()
                for w in words:
                    p = scaf.motzkin_to_triangular(w)
                    images.add(p)
                    assert scaf.triangular_to_motzkin(p).steps == w.steps
                assert images == paths


def test_image_of_length4_words_is_figure_count():
    scaf = TrapeziumScaffolding(3)
    words = motzkin.enumerate_meanders(4, 3, 0)
    assert len(words) == 8
    images = {scaf.motzkin_to_triangular(w) for w in words}
    assert images == set(brute_forward(3, 2, (0, 0, 3), 4))


def test_lookup_counter_linear():
    scaf = TrapeziumScaffolding(4)
    w = motzkin.uniform_sample(9, 4, seed=3)
    before = scaf.lookup_count
    p = scaf.motzkin_to_triangular(w)
    assert scaf.lookup_count - before == 9
    before = scaf.lookup_count
    scaf.triangular_to_motzkin(p)
    assert scaf.lookup_count - before == 9


def test_every_lookup_counts_one_refused_or_not():
    # both scaffoldings count one lookup per delta and delta_inv call, also
    # where the call is refused: a cell off C(z), a step not allowed, a j with
    # no candidate, and a candidate that is in A(z) but maps elsewhere
    L = 4
    scafs = (TrapeziumScaffolding(L), RandomScaffolding(L, seed=1))
    cells = [(f, l) for f in range(-1, 4) for l in range(-1, 4)]
    refused = {scaf: 0 for scaf in scafs}
    for z in lattice.all_points(L):
        for scaf in scafs:
            calls = [(scaf.delta, (z, cell, step))
                     for cell in cells for step in ("U", "F", "D", "X")]
            calls += [(scaf.delta_inv, (z, j, cell))
                      for j in (-1, 0, 1, 2, 3, 4) for cell in cells]
            for lookup, args in calls:
                before = scaf.lookup_count
                try:
                    lookup(*args)
                except NotAllowed:
                    refused[scaf] += 1
                assert scaf.lookup_count - before == 1, (lookup.__name__, args)
    # the two scaffoldings share A(z) and its image, so they refuse alike
    refused = list(refused.values())
    assert refused[0] == refused[1] > 0


def test_prefix_property():
    scaf = TrapeziumScaffolding(4)
    words = motzkin.enumerate_meanders(6, 4, 0)
    image = {w.steps: scaf.motzkin_to_triangular(w) for w in words}
    for a, b in itertools.combinations(words, 2):
        k = 0
        for x, y in zip(a.steps, b.steps):
            if x != y:
                break
            k += 1
        assert image[a.steps][:k] == image[b.steps][:k]


def test_amplitude_is_minimal_triangle_side():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 25)
        word = motzkin.uniform_sample(n, 2 * n + 2, rng=rng)
        amp = motzkin.amplitude(word)
        scaf = TrapeziumScaffolding(amp)
        pts = lattice.validate_path(amp, 2, lattice.origin(amp), scaf.motzkin_to_triangular(word))
        assert max(p[0] + p[1] for p in pts) == amp


def test_bicolored_method_one_all_black_is_plain():
    scaf = TrapeziumScaffolding(4)
    w = MotzkinWord("UUDFD", colors="bbbbb")
    assert scaf.bicolored_to_generic(w, method="one") == scaf.motzkin_to_triangular("UUDFD")


def test_bicolored_method_two_all_black_is_plain():
    scaf = TrapeziumScaffolding(4)
    w = MotzkinWord("UUDFD", colors="bbbbb")
    assert scaf.bicolored_to_generic(w, method="two") == scaf.motzkin_to_triangular("UUDFD")


def test_bicolored_method_two_all_white_is_the_mirror():
    # white-only runs the reverse table throughout: the image is the
    # coordinate mirror of the black image with reversed steps
    mirror = {1: -3, 2: -2, 3: -1}
    for L in (3, 4):
        scaf = TrapeziumScaffolding(L)
        for w in motzkin.enumerate_meanders(4, L, 0):
            black = scaf.motzkin_to_triangular(w)
            white = scaf.bicolored_to_generic(
                MotzkinWord(w.steps, colors="w" * 4), method="two"
            )
            assert white == tuple(mirror[s] for s in black)


def test_bicolored_bijective_per_color_word():
    for L in (2, 3):
        scaf = TrapeziumScaffolding(L)
        for n in (2, 3, 4):
            for colors in itertools.product("bw", repeat=n):
                colors = "".join(colors)
                dv = "".join("F" if c == "b" else "B" for c in colors)
                want = set(lattice.enumerate_paths(L, 2, lattice.origin(L), dv))
                for method in ("one", "two"):
                    got = set()
                    for w in motzkin.enumerate_meanders(n, L, 0):
                        p = scaf.bicolored_to_generic(
                            MotzkinWord(w.steps, colors=colors), method=method
                        )
                        assert flips.direction_vector(p) == dv
                        got.add(p)
                    assert got == want, (L, n, colors, method)


def test_bicolored_bijective_on_random_scaffoldings():
    # the reverse table works for materialized tables too, since the cell
    # sets are mirror symmetric
    for L, seed in ((2, 0), (3, 3)):
        scaf = RandomScaffolding(L, seed)
        for colors in itertools.product("bw", repeat=3):
            colors = "".join(colors)
            dv = "".join("F" if c == "b" else "B" for c in colors)
            want = set(lattice.enumerate_paths(L, 2, lattice.origin(L), dv))
            for method in ("one", "two"):
                got = {
                    scaf.bicolored_to_generic(
                        MotzkinWord(w.steps, colors=colors), method=method
                    )
                    for w in motzkin.enumerate_meanders(3, L, 0)
                }
                assert got == want


def test_bicolored_counts_reproduce_pair_identity():
    import math

    for L in (2, 3):
        for p in range(4):
            for q in range(4 - p):
                walks = lattice.count_bicolored_pairs(L, p, q)
                words = math.comb(p + q, p) * motzkin.count_paths_by_amplitude(p + q, L)
                assert walks == words


def test_sample_forward_path_support():
    paths = {scaffold2d.sample_forward_path(3, 4, seed=s) for s in range(300)}
    assert paths == set(lattice.enumerate_paths(3, 2, lattice.origin(3), "FFFF"))
    assert scaffold2d.sample_forward_path(4, 0, seed=0) == ()
    with pytest.raises(EmptySet):
        scaffold2d.sample_forward_path(0, 2, seed=0)


def test_sample_forward_path_empirical_distribution():
    rng = random.Random(11)
    paths = lattice.enumerate_paths(4, 2, lattice.origin(4), "F" * 5)
    counts = {p: 0 for p in paths}
    draws = 6000
    for _ in range(draws):
        counts[scaffold2d.sample_forward_path(4, 5, rng=rng)] += 1
    expected = draws / len(paths)
    for c in counts.values():
        assert abs(c - expected) < 6 * expected**0.5


def _sample_by_listing_every_cell(L, n, seed):
    """Reference sampler: lists every neighbour cell at each letter's height."""
    rng = random.Random(seed)
    word = motzkin.uniform_sample(n, L, rng=rng)
    z, steps = lattice.origin(L), []
    for h in word.heights()[1:]:
        options = [(j, c) for j, w in lattice.forward_neighbours(z).items() if min(w) >= 0
                   for c in profiles.cells_at_height(w, h)]
        j, _ = options[rng.randrange(len(options))]
        steps.append(j)
        z = lattice.move(z, j)
    return tuple(steps)


def test_sample_forward_path_makes_the_draws_of_the_cell_list():
    for L in (1, 2, 5, 12, 25):
        for seed in range(3):
            assert scaffold2d.sample_forward_path(L, 200, seed=seed) == (
                _sample_by_listing_every_cell(L, 200, seed)
            )


def _nine_candidate_preimages(scaf, z, cell):
    """Reference inverse at one output cell, for every tag j at once.

    Every rule moves the cell index by at most one and the letter fixes the
    source height, so the nine (cell, letter) pairs one step from ``cell``
    contain every preimage; each goes through the forward map, domain check
    included. Returns {j: first preimage found, in U F D order}.
    """
    f2, l2 = cell
    found = {}
    for ch in ("U", "F", "D"):
        f = f2 - motzkin._HEIGHT_MOVE[ch]
        for l in (l2, l2 - 1, l2 + 1):
            try:
                j, image = scaf.delta(z, (f, l), ch)
            except NotAllowed:
                continue
            if image == cell:
                found.setdefault(j, ((f, l), ch))
    return found


def test_trapezium_inverse_matches_the_nine_candidate_search():
    # every point up to L = 12, every tag j (0 and 4 have no preimage), and
    # output cells in a box one wider than the cell sets on every side
    for L in range(13):
        scaf = TrapeziumScaffolding(L)
        for z in lattice.all_points(L, 2):
            for f in range(-1, L // 2 + 2):
                for l in range(-1, L + 2):
                    want = _nine_candidate_preimages(scaf, z, (f, l))
                    for j in range(5):
                        try:
                            got = scaf.delta_inv(z, j, (f, l))
                        except NotAllowed as exc:
                            assert j not in want, (L, z, j, (f, l))
                            assert str(exc) == f"({j}, {(f, l)}) has no preimage at {z}"
                        else:
                            assert got == want.get(j), (L, z, j, (f, l))


def test_trapezium_inverse_needs_one_rule_evaluation(monkeypatch):
    calls = []
    rule = scaffold2d.trapezium_rule
    monkeypatch.setattr(scaffold2d, "trapezium_rule", lambda *a: calls.append(a) or rule(*a))
    scaf = TrapeziumScaffolding(9)
    word = motzkin.uniform_sample(200, 9, seed=5)
    path = scaf.motzkin_to_triangular(word)
    calls.clear()
    assert scaf.triangular_to_motzkin(path) == word
    assert len(calls) == 200


def test_trapezium_height_outside_the_table_is_not_allowed():
    # z = (4, 4, 0) lies at level 8, so in a scaffolding for L = 2 its cells
    # sit above height L // 2 = 1; no lookup may index the step table there
    scaf = TrapeziumScaffolding(2)
    for cell in ((2, 2), (3, 3), (4, 4)):
        with pytest.raises(NotAllowed, match="not allowed at height"):
            scaf.delta((4, 4, 0), cell, "D")
        with pytest.raises(NotAllowed, match="not allowed at height"):
            scaffold2d.trapezium_delta((4, 4, 0), cell, "F", L=2)
    with pytest.raises(NotAllowed):
        scaf.delta_inv((4, 4, 0), 3, (3, 3))
    with pytest.raises(NotAllowed, match="not in C"):
        scaf.delta((0, 0, 2), (-1, -1), "U")


def _delta_by_definition(scaf, z, cell, step):
    """``delta`` spelled through ``_domain_error``, which builds the messages."""
    err = scaf._domain_error(z, cell[0], cell[1], step)
    if err is not None:
        raise NotAllowed(err)
    j, cell2, _case = scaffold2d.trapezium_rule(z[0], z[1], cell[0], cell[1], step)
    return j, cell2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotAllowed as exc:
        return f"NotAllowed: {exc}"


def test_trapezium_domain_check_is_its_definition():
    # every point up to L = 8 and every point one step off the triangle,
    # cells in a box one wider than the cell sets, and a letter no height allows
    for L in range(9):
        scaf = TrapeziumScaffolding(L)
        inside = lattice.all_points(L, 2)
        off = {lattice.move(z, s) for z in inside for s in (1, 2, 3, -1, -2, -3)}
        box = [(f, l) for f in range(-1, L + 2) for l in range(-1, L + 2)]
        for z in inside + sorted(off - set(inside)):
            images = {}
            for cell in box:
                for ch in ("U", "F", "D", "X"):
                    want = _outcome(_delta_by_definition, scaf, z, cell, ch)
                    assert _outcome(scaf.delta, z, cell, ch) == want, (L, z, cell, ch)
                    if not isinstance(want, str):
                        assert images.setdefault(want, (cell, ch)) == (cell, ch)
            # every preimage lies in the box, since cells do
            for j in range(5):
                for cell in box:
                    got = _outcome(scaf.delta_inv, z, j, cell)
                    want = images.get((j, cell),
                                      f"NotAllowed: ({j}, {cell}) has no preimage at {z}")
                    assert got == want, (L, z, j, cell)
