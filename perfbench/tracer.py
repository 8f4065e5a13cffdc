"""Outside-in span tracing of the afkit modules.

`Tracer.install` wraps every public function defined in an `afkit.*`
module and rebinds each `afkit.*` namespace entry that holds the
original function object, so calls through `from .x import f` imports
are traced too. Each call records a span (name, start, end, parent,
batch id) into flat arrays kept in memory; `write` saves them at the
end of the run. `restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter

PACKAGE = "afkit"

# Span fields, stored as parallel arrays of these typecodes.
FIELDS = (("start", "q"), ("end", "q"), ("name", "i"), ("parent", "i"), ("batch", "i"))


def _bits_int(x):
    return abs(x).bit_length()


def _bits_pair(z):
    return max(abs(z[0]).bit_length(), abs(z[1]).bit_length())


# Largest bit length of a result, for the integer kernels.
RESULT_BITS = {
    "kernels.int_det": _bits_int,
    "kernels.gauss_det": _bits_pair,
    "kernels.mixed_perm_sum": _bits_pair,
}

# Hash of the argument multiset, for the mixed evaluators; both are
# symmetric in their arguments, so the order of the tuple is ignored.
ARG_KEYS = {
    "mixdisc.mixed_discriminant": lambda t, *a, **k: hash(
        frozenset(Counter(m.entries for m in t.mats).items())
    ),
    "convexvol.mixed_volume": lambda t, *a, **k: hash(
        frozenset(Counter(b.vertices for b in t.bodies).items())
    ),
}


def span_name(module_name: str, attr: str) -> str:
    """`afkit._kernels` and `int_det` give `kernels.int_det`."""
    short = module_name.split(".", 1)[1].lstrip("_")
    return f"{short}.{attr}"


def afkit_modules():
    """The package and every submodule, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, PACKAGE + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def public_functions() -> dict:
    """span name -> function, for each public function an afkit module defines."""
    out = {}
    for mod in afkit_modules():
        if mod.__name__ == PACKAGE:
            continue
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == mod.__name__:
                out[span_name(mod.__name__, attr)] = value
    return out


class Tracer:
    """Span recorder for one traced run; create one per run."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.arrays = {field: array(code) for field, code in FIELDS}
        self.names = []
        self.stack = []
        self.batch = -1
        self.max_bits = {}
        self.arg_keys = {}
        self._replaced = []  # (module, attr, original)
        self._wrappers = set()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        sid = self._name_id(name)
        starts, ends = self.arrays["start"], self.arrays["end"]
        names, parents, batches = self.arrays["name"], self.arrays["parent"], self.arrays["batch"]
        stack = self.stack
        clock = self.clock
        bits_of = RESULT_BITS.get(name)
        key_of = ARG_KEYS.get(name)
        if key_of is not None:
            keys = self.arg_keys.setdefault(name, set())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                keys.add(key_of(*args, **kwargs))
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            batches.append(tracer.batch)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if bits_of is not None:
                b = bits_of(result)
                if b > tracer.max_bits.get(name, 0):
                    tracer.max_bits[name] = b
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def install(self) -> int:
        """Wrap and rebind; returns the number of bindings replaced."""
        if self._replaced:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for name, fn in public_functions().items():
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in self._namespaces():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._replaced.append((mod, attr, value))
        return len(self._replaced)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._replaced):
            setattr(mod, attr, original)
        self._replaced.clear()

    def leftover_bindings(self) -> list:
        """Namespace entries that still hold a wrapper; empty after restore."""
        left = []
        for mod in self._namespaces():
            for attr, value in vars(mod).items():
                if id(value) in self._wrappers:
                    left.append(f"{mod.__name__}.{attr}")
        return left

    @staticmethod
    def _namespaces():
        return [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def summary(self) -> dict:
        """Per span name: calls, self_ns, max_bits and distinct argument sets."""
        return summarize(self.arrays, self.names, self.max_bits, self.arg_keys)

    def write(self, path) -> None:
        """One JSON header line, then each field's array in FIELDS order."""
        header = {
            "names": self.names,
            "fields": [list(f) for f in FIELDS],
            "count": len(self.arrays["name"]),
            "clock": "perf_counter_ns",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.arrays[field].tofile(fh)


def summarize(arrays, names, max_bits=None, arg_keys=None) -> dict:
    """Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap."""
    starts, ends, sids, parents = arrays["start"], arrays["end"], arrays["name"], arrays["parent"]
    count = len(sids)
    child_ns = [0] * count
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child_ns[p] += ends[i] - starts[i]
    stats = {name: {"calls": 0, "self_ns": 0} for name in names}
    for i in range(count):
        entry = stats[names[sids[i]]]
        entry["calls"] += 1
        entry["self_ns"] += ends[i] - starts[i] - child_ns[i]
    for name, entry in stats.items():
        entry["max_bits"] = (max_bits or {}).get(name, 0)
        keys = (arg_keys or {}).get(name)
        entry["distinct"] = len(keys) if keys is not None else None
    return stats
