"""Spans and counters for the traced run, recorded from outside the package.

``Tracer.install`` replaces the public entry points of each module with
wrappers, everywhere a module binds them: the defining module, the modules
that import the name (``omega.transform``, ``scaffold2d.uniform_sample``,
``profiles.meander_count_table``, ...), the package namespace and the check
lists in ``verify.SUITES``. Because ``omega`` and ``omega_inverse`` recurse
through their module globals, the recursion goes through the wrappers too.
``Tracer.uninstall`` puts every original back.

A span records name, start, end and parent. Spans stay in memory until the
run writes them out. A layer's self time is the duration of its spans minus
the time covered by their child spans. Per-letter helpers (``step_vector``,
``allowed_steps``, ``cells_at_height``, the 3d anchor and lookup helpers)
get no span; their time counts toward the caller. Table lookups of the 2d
scaffoldings get a counter but no span.

Counters are derived from the arguments, never from the program's own
instrumentation, so they read the same on every run of the same inputs.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

LAYERS = ("lattice", "motzkin", "flips", "profiles", "scaffold2d", "omega",
          "pyramid3d", "verify", "cli")

SPANNED = {
    "lattice": ["origin", "validate_path", "all_points", "count_paths", "count_generic",
                "enumerate_paths", "enumerate_generic", "count_bicolored_pairs",
                "format_point", "parse_point", "format_steps", "parse_steps"],
    "motzkin": ["amplitude", "fits_amplitude", "meander_count_table", "count_meanders",
                "count_paths_by_amplitude", "enumerate_meanders", "uniform_sample",
                "MotzkinWord.__post_init__", "MotzkinWord.heights", "MotzkinWord.to_word",
                "MotzkinWord.from_word", "MotzkinWord.direction_vector"],
    "flips": ["direction_vector", "swap_flip", "last_step_flip", "transform",
              "transform_with_trace", "transform_random", "algorithm1", "fold", "tile",
              "read_path"],
    "profiles": ["point_polynomial", "profile", "cell_representation", "floor_sizes",
                 "check_profile_identities", "check_cells_match_profiles",
                 "check_forward_counts_via_profiles"],
    "scaffold2d": ["Scaffolding.motzkin_to_triangular", "Scaffolding.triangular_to_motzkin",
                   "Scaffolding.bicolored_to_generic", "RandomScaffolding.__init__",
                   "RandomScaffolding.to_json", "RandomScaffolding.from_json",
                   "RandomScaffolding.dumps", "RandomScaffolding.loads",
                   "TrapeziumScaffolding.case", "validate_scaffolding",
                   "sample_forward_path", "build_random_scaffolding",
                   "trapezium_scaffolding", "trapezium_delta"],
    "omega": ["omega", "omega_inverse", "forward_to_motzkin_exp", "motzkin_to_forward_exp",
              "reflect", "edge_point"],
    "pyramid3d": ["waffle_points", "pyramid_points", "count_pyramid_paths",
                  "count_waffle_walks", "count_waffle_walks_to", "signed_waffle_array",
                  "anchored_region", "validate_scaffolding3d", "waffle_to_pyramid",
                  "pyramid_to_waffle", "enumerate_pyramid_paths", "enumerate_waffle_walks",
                  "pyramid_gf_coefficients", "reflection_count", "corner_count_by_reflection"],
    "cli": ["main"],
}
# spans whose nesting depth is reported as omega.max_depth
RECURSIVE = {"omega.omega", "omega.omega_inverse"}
# DP entry points whose self time is divided by their cells for ns_per_cell
DP_ENTRIES = {"lattice.count_paths", "lattice.count_generic"}


def _waffle_size(L):
    return sum(L - 2 * j + 1 for j in range(L // 2 + 1))


def _cells_counters():
    """name -> (counter key, function of the call's arguments)."""

    def lattice_paths(L, d, start, dv, *_, **__):
        return math.comb(L + d, d) * len(dv)

    def lattice_generic(L, d, start, n, *_, **__):
        return math.comb(L + d, d) * 2 * n

    def pyramid(L, n, *_, **__):
        return math.comb(L + 3, 3) * n

    def waffle(L, n, *_, **__):
        return _waffle_size(L) * n

    def signed(L, n_max, *_, **__):
        return (L + 2) * (L + 3) // 2 * n_max

    def table(L, n, *_, **__):
        return (L // 2 + 1) * n

    def letters(steps, *_, **__):
        return len(steps)

    return {
        "lattice.count_paths": ("lattice.dp_cells", lattice_paths),
        "lattice.count_generic": ("lattice.dp_cells", lattice_generic),
        "pyramid3d.count_pyramid_paths": ("pyramid3d.dp_cells", pyramid),
        "pyramid3d.count_waffle_walks": ("pyramid3d.dp_cells", waffle),
        "pyramid3d.count_waffle_walks_to": ("pyramid3d.dp_cells", waffle),
        "pyramid3d.signed_waffle_array": ("pyramid3d.dp_cells", signed),
        "motzkin.meander_count_table": ("motzkin.table_cells", table),
        "flips.transform": ("flips.letters", letters),
    }


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []      # (id, parent id or -1, name, start, end)
        self._stack = []     # open frames: [layer, name, start, child time, id]
        self.self_s = defaultdict(float)
        self.name_self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.max_depth = 0
        self._depth = 0
        self._in_inverse = 0
        self._patches = []

    # -- recording -------------------------------------------------------------

    def _span(self, layer, name, fn, counter):
        tracer = self
        clock = time.perf_counter
        recursive = name in RECURSIVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.spans) + len(stack)
            frame = [layer, name, 0.0, 0.0, sid]
            stack.append(frame)
            if recursive:
                tracer._depth += 1
                if tracer._depth > tracer.max_depth:
                    tracer.max_depth = tracer._depth
            frame[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if recursive:
                    tracer._depth -= 1
                tracer._close(frame, end)

        return wrapper

    def _close(self, frame, end):
        layer, name, start, child, sid = frame
        dur = end - start
        self.self_s[layer] += dur - child
        self.name_self_s[name] += dur - child
        self.calls[layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((sid, parent[4] if parent else -1, name, start, end))

    def root(self, fn, *args):
        """Run ``fn`` inside a span of the benchmark's own ("bench" layer)."""
        wrapped = self._span("bench", "bench.op", fn, None)
        return wrapped(*args)

    def _lookup(self, fn, inverse_rule_evals=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counters["scaffold2d.lookups"] += 1
            if not inverse_rule_evals:
                return fn(*args, **kwargs)
            tracer.counters["scaffold2d.trapezium_inverses"] += 1
            tracer._in_inverse += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_inverse -= 1

        return wrapper

    def _rule(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer._in_inverse:
                tracer.counters["scaffold2d.inverse_rule_evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------------

    def install(self, tw):
        """Wrap every listed entry point of the package; ``tw`` names its modules."""
        modules = [getattr(tw, layer) for layer in LAYERS] + [tw.package]
        counters = _cells_counters()
        for layer, quals in SPANNED.items():
            for qual in quals:
                name = f"{layer}.{qual}"
                self._replace(getattr(tw, layer), modules, qual,
                              lambda fn, l=layer, n=name: self._span(l, n, fn, counters.get(n)))
        sc = tw.scaffold2d
        for cls in (sc.RandomScaffolding, sc.TrapeziumScaffolding):
            self._replace(sc, modules, f"{cls.__name__}.delta", self._lookup)
            self._replace(sc, modules, f"{cls.__name__}.delta_inv",
                          lambda fn, t=cls is sc.TrapeziumScaffolding: self._lookup(fn, t))
        self._replace(sc, modules, "trapezium_rule", self._rule)
        for name in dir(tw.verify):
            if name.startswith("check_") or name == "run_suite":
                fn = getattr(tw.verify, name)
                wrapped = self._span("verify", f"verify.{name}", fn, None)
                self._rebind(modules, fn, wrapped)
                for checks in tw.verify.SUITES.values():
                    for k, item in enumerate(checks):
                        if item is fn:
                            self._patch(checks, k, wrapped)

    def _replace(self, mod, modules, qual, make):
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch_attr(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._patch_attr(cls, attr, make(raw))
            return
        fn = getattr(mod, qual)
        self._rebind(modules, fn, make(fn))

    def _rebind(self, modules, fn, wrapped):
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._patch_attr(m, key, wrapped)

    def _patch_attr(self, owner, key, value):
        self._patches.append((owner, key, owner.__dict__[key], True))
        setattr(owner, key, value)

    def _patch(self, container, key, value):
        self._patches.append((container, key, container[key], False))
        container[key] = value

    def uninstall(self):
        while self._patches:
            owner, key, original, is_attr = self._patches.pop()
            if is_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original

    # -- reporting ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

