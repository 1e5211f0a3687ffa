"""Outside-in tracer for ``toruscm``.

It wraps, from outside the library, every public function of every
``toruscm`` module and every public method of the classes those modules
define, plus the arithmetic operators (``__add__``, ``__mul__``, ...).
Each wrapper counts calls and exceptions and records a span: its time goes
to the caller's span as child time, so a module's self time is the time
its spans took minus the time of the spans they caused.

Modules import each other with ``from .x import f``, so one function can
sit under several names (``positive_definite`` in ``cm``, ``torus`` and
``mirror``; ``induce_gks`` in ``mirror``, ``valattice`` and ``cli``).  The
tracer rebinds every ``toruscm`` module attribute and class attribute that
is the same object as a wrapped function, and ``uninstall`` puts each
original object back.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import types
from time import perf_counter

ARITHMETIC = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
    }
)
MARK = "__perfbench_traced__"


def _traceable(name: str) -> bool:
    return not name.startswith("_") or name in ARITHMETIC


def _unwrap(value):
    """(function, rewrap) for a plain function or a static/class method."""
    if isinstance(value, (staticmethod, classmethod)):
        return value.__func__, type(value)
    if isinstance(value, types.FunctionType):
        return value, None
    return None, None


def package_modules(package: str):
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def installed_wrappers(package: str) -> list:
    """Names under which a wrapper is currently bound (empty when clean)."""
    found = []
    for mod in package_modules(package):
        for name, value in vars(mod).items():
            owners = [(f"{mod.__name__}.{name}", value)]
            if isinstance(value, type):
                owners += [(f"{mod.__name__}.{name}.{a}", v) for a, v in vars(value).items()]
            for where, obj in owners:
                fn, _ = _unwrap(obj)
                if fn is not None and getattr(fn, MARK, False):
                    found.append(where)
    return found


class Tracer:
    """Counts and spans for the public surface of a package.

    ``groups`` maps a group name to function keys (``module.qualname``).
    A group's entries and inclusive time count only its outermost calls,
    so ``inverse`` calling ``solve`` is one elimination.  ``scoped`` maps a
    counter name to (outer group, inner key): calls of the inner function
    made while the outer group is active.
    """

    def __init__(self, package: str, groups: dict, scoped: dict):
        self.package = package
        self.originals = {}  # key -> original function
        self.module_of = {}  # key -> short module name
        for mod in package_modules(package):
            short = mod.__name__.rpartition(".")[2]
            for name, value in vars(mod).items():
                if isinstance(value, types.FunctionType):
                    if value.__module__ == mod.__name__ and _traceable(name):
                        self._add(short, value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        fn, _ = _unwrap(member)
                        if fn is not None and _traceable(attr):
                            self._add(short, fn)
        wanted = {k for keys in groups.values() for k in keys}
        wanted |= {inner for _, inner in scoped.values()}
        self.missing = sorted(wanted - set(self.originals))
        self.calls = {key: [0, 0] for key in self.originals}  # calls, raised
        self.self_s = {m: [0.0] for m in set(self.module_of.values())}
        group_of = {k: name for name, keys in groups.items() for k in keys}
        self.groups = {name: [0, 0, 0.0] for name in groups}  # depth, entries, inclusive s
        for key in self.originals:
            self.groups.setdefault(group_of.get(key, key), [0, 0, 0.0])
        self.group_of = {key: group_of.get(key, key) for key in self.originals}
        self.scoped = {name: [0] for name in scoped}
        self.scope_of = {
            inner: (self.groups[outer], self.scoped[name])
            for name, (outer, inner) in scoped.items()
            if inner in self.originals and outer in self.groups
        }
        self.stack = []
        self.patched = []  # (owner, attribute, original value)

    def _add(self, short: str, fn) -> None:
        key = f"{short}.{fn.__qualname__}"
        if key not in self.originals:
            self.originals[key] = fn
            self.module_of[key] = short

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        pairs = {id(fn): (fn, self._wrap(key, fn)) for key, fn in self.originals.items()}

        def wrapper_for(obj):
            hit = pairs.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        done = set()
        for mod in package_modules(self.package):
            for name, value in list(vars(mod).items()):
                w = wrapper_for(value)
                if w is not None:
                    self._patch(mod, name, value, w)
                elif isinstance(value, type) and value.__module__.startswith(self.package):
                    if id(value) in done:
                        continue  # a class reached through two modules
                    done.add(id(value))
                    for attr, member in list(vars(value).items()):
                        fn, rewrap = _unwrap(member)
                        w = wrapper_for(fn)
                        if w is not None:
                            self._patch(value, attr, member, rewrap(w) if rewrap else w)

    def _patch(self, owner, name, original, replacement) -> None:
        self.patched.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> list:
        """Restore every patched attribute; returns the names not restored."""
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        bad = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self.patched
            if vars(owner).get(name) is not original
        ]
        self.patched = []
        return bad

    def _wrap(self, key: str, fn):
        rec = self.calls[key]
        grp = self.groups[self.group_of[key]]
        mod = self.self_s[self.module_of[key]]
        stack = self.stack
        scope = self.scope_of.get(key)
        clock = perf_counter

        def traced(*args, **kwargs):
            rec[0] += 1
            if scope is not None and scope[0][0]:
                scope[1][0] += 1
            grp[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[1] += 1
                raise
            finally:
                dt = clock() - t0
                mod[0] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                grp[0] -= 1
                if not grp[0]:
                    grp[1] += 1
                    grp[2] += dt

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        setattr(traced, MARK, True)
        return traced

    # -- readings ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": {k: tuple(v) for k, v in self.calls.items()},
            "groups": {k: (v[1], v[2]) for k, v in self.groups.items()},
            "self_s": {k: v[0] for k, v in self.self_s.items()},
            "scoped": {k: v[0] for k, v in self.scoped.items()},
        }

    @staticmethod
    def delta(after: dict, before: dict) -> dict:
        def sub(a, b):
            if isinstance(a, tuple):
                return tuple(x - y for x, y in zip(a, b))
            return a - b

        return {
            part: {k: sub(v, before[part][k]) for k, v in after[part].items()}
            for part in after
        }

    @staticmethod
    def counts(d: dict) -> dict:
        """The parts of a delta that must repeat exactly: calls, raises,
        group entries and scoped counters."""
        return {
            "calls": d["calls"],
            "entries": {k: v[0] for k, v in d["groups"].items()},
            "scoped": d["scoped"],
        }

    def profile_calls(self, call) -> dict:
        """cProfile ``ncalls`` of every traced function during ``call()``,
        run with the tracer uninstalled."""
        prof = cProfile.Profile()
        prof.enable()
        try:
            call()
        finally:
            prof.disable()
        stats = pstats.Stats(prof).stats
        out = {}
        for key, fn in self.originals.items():
            code = fn.__code__
            got = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            out[key] = got[1] if got else 0
        return out
