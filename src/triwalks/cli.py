"""Command line front end.

Every invocation prints a short human-readable summary followed by one JSON
document (the machine interface) on the last line. Randomized subcommands
require an explicit seed so that reruns are bit for bit reproducible; the
JSON is deterministic apart from the "timing" key.

Each subcommand handler returns ``(answer, human_lines)`` and prints nothing:
``answer`` holds the document's inputs and outputs, plus checks and ok for
verify. ``main`` alone times the handler, adds command, version, ok and
timing, and prints the lines and then the document; on a TriwalksError or
ValueError it prints one error document instead.

Subcommands: count, enumerate, map, scaffolding, sample, profile, gf,
pyramid, verify. Every parser is declared from one table of flags, and takes
only the flags that its handler reads. Four subcommands name a family first:

- count: motzkin, triangular, generic, bicolored, pyramid, waffle;
- enumerate: motzkin, triangular;
- sample: motzkin, forward;
- pyramid: count, map, gf.

Counts and coefficients are printed with all their digits, however many.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import os
import pathlib
import sys
import time

from . import __version__, lattice, motzkin, omega, profiles, pyramid3d, scaffold2d, verify
from .errors import TriwalksError, UsageError
from .motzkin import MotzkinWord

# default directory for files written by the cli (scaffoldings, reports)
OUTPUT_DIR_ENV = "TRIWALKS_OUTDIR"


def _outpath(name):
    base = pathlib.Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    base.mkdir(parents=True, exist_ok=True)
    return base / name


def _int(flag):
    """An integer flag's value. int() refuses more than 4,300 digits; such a
    value is reported as too large, without echoing its digits."""
    try:
        return int(flag)
    except ValueError:
        why = lattice._too_large(flag) or f"invalid int value: {flag!r}"
        raise argparse.ArgumentTypeError(why) from None


def _method(flag):
    """A --method value, checked while the command line is parsed: omega,
    trapezium or random:<seed> with an int seed. A seed past int()'s digit
    limit is reported as too large, without its digits."""
    if flag in ("omega", "trapezium"):
        return flag
    kind, _, seed = flag.partition(":")
    if kind == "random":
        try:
            int(seed)
            return flag
        except ValueError:
            why = lattice._too_large(seed)
            if why:
                raise argparse.ArgumentTypeError(why) from None
    raise argparse.ArgumentTypeError(f"want omega, trapezium or random:<seed>, got {flag!r}")


def _scaffolding_from_flag(flag, L):
    if flag == "trapezium":
        return scaffold2d.TrapeziumScaffolding(L)
    return scaffold2d.RandomScaffolding(L, int(flag.split(":", 1)[1]))


def _load_scaffolding(path):
    """The scaffolding saved in ``path``; UsageError if unreadable or malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return scaffold2d.RandomScaffolding.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read the scaffolding file: {exc}") from None
    except UnicodeDecodeError as exc:
        # not UTF-8; the repr would repeat every byte of the file
        raise UsageError(f"{path} is not a scaffolding file: {exc}") from None
    # RecursionError: nested too deep for the JSON parser
    except (KeyError, TypeError, AttributeError, ValueError, RecursionError) as exc:
        raise UsageError(f"{path} is not a scaffolding file: {exc!r}") from None


def _served_count(d):
    """The identity that serves forward counts in dimension d, or None where
    only the DP does: the profile-meander sum at d = 2, the waffle cell sum
    at d = 3. Looked up per call, so a rebound name is seen."""
    return {2: profiles.forward_count, 3: pyramid3d.forward_count}.get(d)


# -- subcommand handlers -------------------------------------------------------

def _start(args, d):
    """The --start point, or the corner of the lattice of side --L in dimension
    d; L and d are checked either way."""
    corner = lattice.origin(args.L, d)
    return lattice.parse_point(args.start) if args.start else corner


def _digits(value):
    """The exact decimal digits of an int of any size: str() refuses more than
    4,300 digits unless the process raises its limit, and Decimal has none."""
    return str(decimal.Decimal(value))


def _counted(inputs, value):
    """The answer of a count, with the same digits in the document and the human line."""
    digits = _digits(value)
    return {"inputs": inputs, "outputs": {"count": digits}}, [f"count = {digits}"]


def cmd_count_motzkin(args):
    inputs = {"family": "motzkin", "n": args.n, "amplitude": args.amplitude}
    if not args.start_height:
        return _counted(inputs, motzkin.count_paths_by_amplitude(args.n, args.amplitude))
    inputs["start_height"] = args.start_height
    return _counted(inputs, motzkin.count_meanders(args.amplitude, args.n, args.start_height))


def cmd_count_triangular(args):
    start = _start(args, args.d)
    if args.n < 0:
        raise ValueError(f"need n >= 0, got n={args.n}")
    if args.dv is not None and args.n and len(args.dv) != args.n:
        raise UsageError(f"triwalks {args.cmd}: argument --dv: {len(args.dv)} letters, "
                         f"but --n is {args.n}")
    dv = args.dv if args.dv else "F" * args.n
    served = _served_count(args.d)
    if served:  # by direction-vector independence
        # the start is checked before the letters, as the DP checks them
        value = served(args.L, start, len(dv))
        lattice.check_dv(dv)
    else:
        value = lattice.count_paths(args.L, args.d, start, dv)
    return _counted({"family": "triangular", "L": args.L, "d": args.d,
                     "start": lattice.format_point(start), "dv": dv}, value)


def cmd_count_generic(args):
    start = _start(args, args.d)
    served = _served_count(args.d)
    if served:  # each of the 2^n direction vectors counts like "F" * n
        value = served(args.L, start, args.n) << args.n
    else:
        value = lattice.count_generic(args.L, args.d, start, args.n)
    return _counted({"family": "generic", "L": args.L, "d": args.d,
                     "start": lattice.format_point(start), "n": args.n}, value)


def cmd_count_bicolored(args):
    p, q = args.p, args.q
    if p < 0 or q < 0:
        raise ValueError(f"need p, q >= 0, got p={p}, q={q}")
    lattice.origin(args.L)  # rejects L < 0 with the message of the DP
    # each of the C(p+q, p) interleavings counts like the forward walks
    value = math.comb(p + q, p) * motzkin.count_paths_by_amplitude(p + q, args.L)
    return _counted({"family": "bicolored", "L": args.L, "p": p, "q": q}, value)


def cmd_count_pyramid(args):
    start = _start(args, 3)
    inputs = {"family": "pyramid", "L": args.L, "n": args.n,
              "start": lattice.format_point(start), "orientation": args.orientation}
    # backward walks count like forward ones, by direction-vector independence
    return _counted(inputs, pyramid3d.forward_count(args.L, start, args.n))


def cmd_count_waffle(args):
    if args.L < 0:
        raise ValueError(f"need L >= 0, got L={args.L}")
    start = lattice.parse_point(args.start) if args.start else (0, 0)
    value = pyramid3d.count_waffle_walks(args.L, args.n, start)
    return _counted({"family": "waffle", "L": args.L, "n": args.n,
                     "start": ",".join(map(str, start))}, value)


def _check_amplitude(args):
    """A negative amplitude, in the words of ``count motzkin``; the motzkin
    functions would call it a bad start height."""
    if args.amplitude < 0:
        raise ValueError(f"need n, L >= 0, got n={args.n}, L={args.amplitude}")


def _listed(inputs, out):
    """The answer of an enumeration: the items, their number, and the first 20
    as human lines."""
    return ({"inputs": inputs, "outputs": {"count": len(out), "items": out}},
            [f"{len(out)} objects"] + out[:20])


def cmd_enumerate_motzkin(args):
    _check_amplitude(args)
    words = motzkin.enumerate_meanders(args.n, args.amplitude, args.start_height, cap=args.cap)
    return _listed({"family": "motzkin", "n": args.n, "amplitude": args.amplitude,
                    "start_height": args.start_height}, [w.steps for w in words])


def cmd_enumerate_triangular(args):
    start = _start(args, args.d)
    paths = lattice.enumerate_paths(args.L, args.d, start, args.dv, cap=args.cap)
    return _listed({"family": "triangular", "L": args.L, "d": args.d,
                    "start": lattice.format_point(start), "dv": args.dv},
                   [lattice.format_steps(p) for p in paths])


def cmd_map(args):
    method = args.method or "trapezium"
    if args.scaffolding_file:
        method = f"file:{args.scaffolding_file}"
    if args.bicolored:
        if method == "omega":
            raise UsageError("triwalks map: argument --bicolored: not allowed with "
                             "argument --method omega")
        if args.direction == "t2m":
            raise UsageError("triwalks map: argument --bicolored: not allowed with "
                             "argument --direction t2m")
    if args.L < 0:
        raise ValueError(f"need L >= 0, got L={args.L}")
    inputs = {"method": method, "direction": args.direction, "L": args.L,
              "input": args.input, "bicolored": args.bicolored}
    if method == "omega":
        to_path = functools.partial(omega.motzkin_to_forward_exp, args.L)
        to_word = functools.partial(omega.forward_to_motzkin_exp, args.L)
    else:
        if args.scaffolding_file:
            scaf = _load_scaffolding(args.scaffolding_file)
            if scaf.L != args.L:
                raise UsageError(f"scaffolding file is for L={scaf.L}, not {args.L}")
        else:
            scaf = _scaffolding_from_flag(method, args.L)
        to_path, to_word = scaf.motzkin_to_triangular, scaf.triangular_to_motzkin
    if args.direction == "t2m":
        word = to_word(lattice.parse_steps(args.input))
        outputs = {"motzkin": word.steps, "start_height": 0}
        if method != "omega":
            outputs["amplitude"] = motzkin.amplitude(word)
        return {"inputs": inputs, "outputs": outputs}, [f"motzkin word: {word.steps}"]
    if args.bicolored:
        word = MotzkinWord.from_word(args.input)
        path = lattice.format_steps(scaf.bicolored_to_generic(word, method=args.bicolored))
        outputs = {"path": path, "direction_vector": word.direction_vector()}
    else:
        path = lattice.format_steps(to_path(args.input))
        outputs = {"path": path}
    return {"inputs": inputs, "outputs": outputs}, [f"path: {path}"]


def cmd_sample_motzkin(args):
    _check_amplitude(args)
    word = motzkin.uniform_sample(args.n, args.amplitude, seed=args.seed)
    inputs = {"family": "motzkin", "n": args.n, "amplitude": args.amplitude, "seed": args.seed}
    return ({"inputs": inputs, "outputs": {"motzkin": word.steps}},
            [f"sampled word: {word.steps or '(empty)'}"])


def cmd_sample_forward(args):
    path = lattice.format_steps(scaffold2d.sample_forward_path(args.L, args.n, seed=args.seed))
    inputs = {"family": "forward", "L": args.L, "n": args.n, "seed": args.seed}
    return {"inputs": inputs, "outputs": {"path": path}}, [f"sampled path: {path or '(empty)'}"]


def cmd_profile(args):
    z = lattice.parse_point(args.point)
    L = sum(z)
    lattice.check_start(L, 2, z)
    prof = profiles.profile(z)
    cells = profiles.cell_representation(z)
    outputs = {"profile": list(prof), "cells": [list(c) for c in cells]}
    return ({"inputs": {"point": args.point, "L": L}, "outputs": outputs},
            [f"profile {list(prof)}", f"cells {cells}"])


def cmd_gf(args):
    coeffs = [_digits(c) for c in pyramid3d.corner_counts(args.L, args.terms)]
    return ({"inputs": {"L": args.L, "terms": args.terms}, "outputs": {"coefficients": coeffs}},
            [f"coefficients: [{', '.join(coeffs)}]"])


def _command(args):
    """The command a document names, answer or error: the subcommand, with
    its action for ``pyramid``."""
    return f"pyramid {args.action}" if args.cmd == "pyramid" else args.cmd


def cmd_pyramid_count(args):
    value = pyramid3d.forward_count(args.L, lattice.origin(args.L, 3), args.n)
    return _counted({"L": args.L, "n": args.n}, value)


def cmd_pyramid_map(args):
    """A waffle walk to its pyramid walk."""
    start = lattice.parse_point(args.cell)
    path = pyramid3d.waffle_to_pyramid(lattice.origin(args.L, 3), start, args.walk)
    return ({"inputs": {"L": args.L, "cell": args.cell, "walk": args.walk},
             "outputs": {"path": lattice.format_steps(path)}},
            [f"path: {lattice.format_steps(path)}"])


def cmd_scaffolding(args):
    scaf = scaffold2d.RandomScaffolding(args.L, args.seed)
    try:
        out = pathlib.Path(args.out) if args.out else _outpath(
            f"scaffolding_L{args.L}_seed{args.seed}.json"
        )
        with out.open("w", encoding="utf-8") as fh:
            scaf.dump(fh)
    except OSError as exc:
        raise UsageError(f"cannot write the scaffolding: {exc}") from None
    return ({"inputs": {"L": args.L, "seed": args.seed},
             "outputs": {"file": str(out), "points": len(scaf.tables)}},
            [f"wrote {out}"])


def cmd_verify(args):
    if args.scaffolding_file:
        # the file takes the place of the suites and their grid
        for flag, given in (("--suite", args.suite != "all"), ("--max-L", args.max_L is not None),
                            ("--max-n", args.max_n is not None)):
            if given:
                raise UsageError(f"triwalks verify: argument --scaffolding-file: not allowed "
                                 f"with argument {flag}")
        scaf = _load_scaffolding(args.scaffolding_file)
        rep = scaffold2d.validate_scaffolding(scaf)
        state = "valid" if rep.ok else f"INVALID ({len(rep.violations)} violations)"
        return ({"inputs": {"scaffolding_file": args.scaffolding_file},
                 "outputs": {"checked": rep.checked,
                             "violations": [repr(v) for v in rep.violations[:10]]},
                 "ok": rep.ok},
                [f"scaffolding {state}"])
    results = verify.run_suite(args.suite, max_L=args.max_L, max_n=args.max_n)
    human = []
    for r in results:
        state = "PASS" if r.ok else "FAIL"
        human.append(f"{state} {r.name} ({r.checked} checks, {r.seconds:.2f}s)")
        if not r.ok:
            human.append(f"     counterexample: {r.counterexample!r}")
    ok = all(r.ok for r in results)
    return ({"inputs": {"suite": args.suite, "max_L": args.max_L, "max_n": args.max_n},
             "outputs": {"passed": sum(r.ok for r in results), "total": len(results)},
             "checks": [r.to_json() for r in results], "ok": ok},
            human + [("all checks passed" if ok else "CHECKS FAILED")])


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a bad command line, so that ``main`` reports it
    as one JSON error document; subcommand parsers inherit the class. A flag
    is named in full: --start is not read as --start-height."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# the options of each flag that a command reads; a command's parser takes
# these flags of its handler and no others
FLAGS = {
    "--n": {"type": _int, "default": 0},
    "--amplitude": {"type": _int, "default": 0},
    "--start-height": {"type": _int, "default": 0},
    "--L": {"type": _int, "default": 0},
    "--d": {"type": _int, "default": 2},
    "--dv": {},
    "--start": {},
    "--p": {"type": _int, "default": 0},
    "--q": {"type": _int, "default": 0},
    "--orientation": {"choices": ["F", "B"], "default": "F"},
    "--cap": {"type": _int, "default": 100000},
    "--seed": {"type": _int},
    "--terms": {"type": _int, "default": 10},
    "--cell": {"default": "0,0"},
    "--walk": {"default": ""},
    "--point": {},
    "--out": {"help": f"output file (default under ${OUTPUT_DIR_ENV} or .)"},
    "--direction": {"choices": ["m2t", "t2m"], "default": "m2t"},
    "--bicolored": {"choices": ["one", "two"],
                    "help": "map a bicolored word (m2t) by a scaffolding"},
    "--suite": {"default": "all", "choices": ["all"] + sorted(verify.SUITES)},
    "--max-L": {"type": _int},
    "--max-n": {"type": _int},
}


def _family(parent, name, fn, flags, required=(), help=None, **defaults):
    """The parser of one command or family under ``parent``: the FLAGS its
    handler ``fn`` reads, with those in ``required`` required and ``defaults``
    replacing theirs, listed in the parent's help with ``help`` if given. A
    command with families has fn None and no flags; each family's fn wins."""
    p = parent.add_parser(name, **({"help": help} if help else {}))
    for flag in flags.split():
        p.add_argument(flag, required=flag in required, **FLAGS[flag])
    p.set_defaults(fn=fn, **defaults)
    return p


@functools.cache
def build_parser():
    ap = _Parser(prog="triwalks", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    count = _family(sub, "count", None, "", help="exact counts of walks and words").add_subparsers(
        dest="family", required=True)
    _family(count, "motzkin", cmd_count_motzkin, "--n --amplitude --start-height")
    _family(count, "triangular", cmd_count_triangular, "--L --d --n --dv --start")
    _family(count, "generic", cmd_count_generic, "--L --d --n --start")
    _family(count, "bicolored", cmd_count_bicolored, "--L --p --q")
    _family(count, "pyramid", cmd_count_pyramid, "--L --n --start --orientation")
    _family(count, "waffle", cmd_count_waffle, "--L --n --start")

    enum = _family(sub, "enumerate", None, "", help="list walks or words (capped)").add_subparsers(
        dest="family", required=True)
    _family(enum, "motzkin", cmd_enumerate_motzkin, "--n --amplitude --start-height --cap")
    _family(enum, "triangular", cmd_enumerate_triangular, "--L --d --dv --start --cap", dv="")

    m = _family(sub, "map", cmd_map, "--L --direction --bicolored", ("--L",),
                help="apply one of the bijections")
    m.add_argument("input", help="a walk 's1 s2 ...' or a Motzkin word 'UFD...'")
    # one source of the bijection: a method or a saved file
    source = m.add_mutually_exclusive_group()
    source.add_argument("--method", type=_method, help="omega | trapezium | random:<seed>")
    source.add_argument("--scaffolding-file", help="replay a saved scaffolding bit for bit")

    _family(sub, "scaffolding", cmd_scaffolding, "--L --seed --out", ("--L", "--seed"),
            help="build and save a random scaffolding")

    sample = _family(sub, "sample", None, "", help="uniform random walk or word").add_subparsers(
        dest="family", required=True)
    _family(sample, "motzkin", cmd_sample_motzkin, "--n --amplitude --seed", ("--n", "--seed"))
    _family(sample, "forward", cmd_sample_forward, "--L --n --seed", ("--n", "--seed"))

    _family(sub, "profile", cmd_profile, "--point", ("--point",),
            help="profile and cells of a triangle point")
    _family(sub, "gf", cmd_gf, "--L --terms", ("--L",),
            help="pyramid generating function coefficients")

    pyramid = _family(sub, "pyramid", None, "", help="three-dimensional walks").add_subparsers(
        dest="action", required=True)
    _family(pyramid, "count", cmd_pyramid_count, "--L --n", ("--L",))
    _family(pyramid, "map", cmd_pyramid_map, "--L --cell --walk", ("--L",))
    _family(pyramid, "gf", cmd_gf, "--L --terms", ("--L",))

    v = _family(sub, "verify", cmd_verify, "--suite --max-L --max-n",
                help="run the exhaustive check suites")
    v.add_argument("--scaffolding-file", help="validate a saved scaffolding instead")

    return ap


def main(argv=None):
    args = None
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        answer, human_lines = args.fn(args)
        seconds = time.perf_counter() - t0
    except SystemExit as exc:  # --help; a bad command line raises UsageError instead
        return exc.code if isinstance(exc.code, int) else 2
    except (TriwalksError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        command = _command(args) if args else None
        print(json.dumps({"command": command, "ok": False, "error": str(exc)}))
        return 2 if isinstance(exc, UsageError) else 1
    doc = {"command": _command(args), "version": __version__, **answer,
           "ok": bool(answer.get("ok", True)), "timing": {"seconds": seconds}}
    for line in human_lines:
        print(line)
    print(json.dumps(doc, sort_keys=True))
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
