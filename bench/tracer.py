"""In-process span tracer for the univoque library layers.

Every public function of each library module is wrapped, on its module and
under every name that a ``from ... import`` bound it to in another module,
so that calls cannot bypass the wrapper.  A span is (name, start, end,
parent, command id); spans are kept in flat arrays in memory and written
out once at the end.  Counters that need arguments or results (degrees,
endpoint sizes, halvings, shifts checked, ...) are taken at the same
boundaries.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import math
import time
import types
from collections import defaultdict

LAYERS = ("polynomials", "algebraic", "words", "characterization",
          "expansions", "approximator", "oracle")

# constant-time accessors whose cost is left to their caller
UNWRAPPED = {"polynomials.degree", "polynomials.is_zero"}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _log2(x) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.cmd = array.array("H")
        self.stack = [-1]
        self.cmd_id = [0]
        self.counters = defaultdict(float)
        self.caches = {}
        self._wrapped = {}

    # --- instrumentation -----------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        after = _AFTER.get(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, cmd, stack, cmd_id = self.parent, self.cmd, self.stack, \
            self.cmd_id
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            cmd.append(cmd_id[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap the public functions of every layer module, then rebind
        every module attribute that refers to an original function."""
        mods = [importlib.import_module("univoque." + m) for m in LAYERS]
        mods += [importlib.import_module("univoque.cli"),
                 importlib.import_module("univoque")]
        for layer, mod in zip(LAYERS, mods):
            for attr, val in list(vars(mod).items()):
                name = "%s.%s" % (layer, attr)
                if attr.startswith("_") or name in UNWRAPPED:
                    continue
                is_func = isinstance(val, types.FunctionType) or \
                    hasattr(val, "cache_info")
                if is_func and getattr(val, "__module__", None) == \
                        mod.__name__:
                    self._wrapped[id(val)] = self._wrap(name, val)
                    if hasattr(val, "cache_info"):
                        self.caches[name] = val
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in self._wrapped:
                    setattr(mod, attr, self._wrapped[id(val)])
        self.cache_start = {n: c.cache_info() for n, c in self.caches.items()}

    def begin_command(self, cid: int):
        self.cmd_id[0] = cid

    # --- reduction -----------------------------------------------------------

    def dump(self, path):
        """Write the spans: a JSON header plus the raw column arrays."""
        with open(path + ".json", "w") as f:
            json.dump({"names": self.names, "spans": len(self.start),
                       "columns": [["name", "H"], ["start", "d"],
                                   ["end", "d"], ["parent", "l"],
                                   ["cmd", "H"]]}, f)
        with open(path + ".bin", "wb") as f:
            for col in (self.name_of, self.start, self.end, self.parent,
                        self.cmd):
                col.tofile(f)

    def reduce(self, windows) -> dict:
        """Self times per function, per layer and for the CLI, plus the
        coverage check.  windows[c] = (start, end) of command c."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, \
            self.name_of
        covered = [0.0] * n
        last = list(start)          # end of the child time merged so far
        top_cover = defaultdict(float)
        top_last = {}
        self_t = defaultdict(float)
        incl_t = defaultdict(float)
        calls = defaultdict(int)
        in_oracle = bytearray(n)
        oracle_id = self.names.index("oracle.enumerate_expansions") \
            if "oracle.enumerate_expansions" in self.names else -1
        sign_id = self.names.index("algebraic.sign_at") \
            if "algebraic.sign_at" in self.names else -1
        sign_in_oracle = 0
        for i in range(n):
            p = parent[i]
            s, e = start[i], end[i]
            if p >= 0:
                lo = max(s, start[p], last[p])
                hi = min(e, end[p])
                if hi > lo:
                    covered[p] += hi - lo
                    last[p] = hi
                in_oracle[i] = in_oracle[p] or name_of[p] == oracle_id
            else:
                c = self.cmd[i]
                ws, we = windows[c]
                lo = max(s, ws, top_last.get(c, ws))
                hi = min(e, we)
                if hi > lo:
                    top_cover[c] += hi - lo
                    top_last[c] = hi
            if name_of[i] == sign_id and in_oracle[i]:
                sign_in_oracle += 1
        for i in range(n):
            nm = name_of[i]
            calls[nm] += 1
            incl_t[nm] += end[i] - start[i]
            self_t[nm] += end[i] - start[i] - covered[i]
        out = {key: {self.names[k]: v for k, v in d.items()}
               for key, d in (("calls", calls), ("self_s", self_t),
                              ("incl_s", incl_t))}
        wall = sum(we - ws for ws, we in windows.values())
        cli_self = wall - sum(top_cover.values())
        lib_self = sum(self_t.values())
        out.update(wall=wall, cli_self=cli_self, spans=n,
                   coverage=(lib_self + cli_self) / wall if wall else 1.0,
                   sign_in_oracle=sign_in_oracle)
        end_info = {nm: c.cache_info() for nm, c in self.caches.items()}
        out["caches"] = {
            nm: {"hits": end_info[nm].hits - self.cache_start[nm].hits,
                 "misses": end_info[nm].misses - self.cache_start[nm].misses,
                 "currsize": end_info[nm].currsize}
            for nm in self.caches}
        out["counters"] = dict(self.counters)
        return out


# --- counters taken from arguments and results ------------------------------

def _max(counters, key, v):
    if v > counters[key]:
        counters[key] = v


def _poly_degree(counters, args, kwargs, result):
    if args:
        _max(counters, "polynomials.max_degree", len(args[0]) - 1)


def _poly_gcd(counters, args, kwargs, result):
    _max(counters, "polynomials.max_degree",
         max(len(args[0]), len(args[1])) - 1)


def _sign_at(counters, args, kwargs, result):
    if result == 0:
        counters["algebraic.sign_at.zeros"] += 1


def _refine(counters, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    w_in, w_out = a.hi - a.lo, result.hi - result.lo
    if w_out < w_in:
        counters["algebraic.refine.halvings"] += _log2(w_in / w_out)
    _max(counters, "algebraic.endpoint_bits_max",
         max(_bits(result.lo), _bits(result.hi)))


def _poly_from_sequence(counters, args, kwargs, result):
    _max(counters, "expansions.poly_from_sequence.max_degree",
         len(result) - 1)


def _expansion(counters, args, kwargs, result):
    counters["expansions.digits"] += len(result.digits)


def _kl(counters, args, kwargs, result):
    _max(counters, "expansions.kl_constant.prefix_length", result[2])


def _classify(counters, args, kwargs, result):
    counters["characterization.classify.shifts_checked"] += \
        result.shifts_checked


def _approximate(counters, args, kwargs, result):
    for r in result:
        _max(counters, "approximator.gap_bits_max", _bits(r.gap))


def _enumerate(counters, args, kwargs, result):
    counters["oracle.viable"] += sum(result.counts)
    counters["oracle.parents"] += 1 + sum(result.counts[:-1])


_AFTER = {
    "polynomials.evaluate": _poly_degree,
    "polynomials.sturm_chain": _poly_degree,
    "polynomials.squarefree_part": _poly_degree,
    "polynomials.poly_gcd": _poly_gcd,
    "algebraic.sign_at": _sign_at,
    "algebraic.refine": _refine,
    "expansions.poly_from_sequence": _poly_from_sequence,
    "expansions.greedy_expansion": _expansion,
    "expansions.quasi_greedy_expansion": _expansion,
    "expansions.kl_constant": _kl,
    "characterization.classify": _classify,
    "approximator.approximate": _approximate,
    "oracle.enumerate_expansions": _enumerate,
}
