"""Spans around the public functions of x0genus, recorded from outside the package.

install() replaces each traced function on every x0genus module that holds
it, by-name imports included (values' `from .genus import iter_blocks`,
cli's `genus as genus_breakdown`, ...); uninstall() puts the originals back.
Nothing under src/ changes.

A span is (id, name, start, end, parent, thread, attrs).  The parent is the
span open on the same thread; a breakdown_block running on a pool thread
has the iter_blocks pass that submitted it as parent.  An iter_blocks pass
spans its whole iteration, during which the consumer also runs, so it is
not subtracted from its caller; the consumer's blocking time is the
"genus.iter_blocks.wait" span around each next().  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple, Optional

MODULES = ("x0genus", "x0genus.arith", "x0genus.genus", "x0genus.values",
           "x0genus.bounds", "x0genus.stats", "x0genus.cli")

PASS = "genus.iter_blocks"
WAIT = "genus.iter_blocks.wait"
BLOCK = "genus.breakdown_block"

TRACED = {
    "arith": ("primes_up_to", "primes_in_progression", "factorize"),
    "genus": ("breakdown_block", "iter_blocks", "genus"),
    "values": ("missed_values", "verify_parity_classification", "power_of_two_congruence_check"),
    "bounds": ("check_bounds_range", "mu_over_12_bound_check"),
    "stats": ("average_partial", "zeta_identity_check", "residue_histogram",
              "residue_density_exact", "squarefree_fraction"),
    "cli": ("main",),
}
# modules whose self time is reported: their spans minus blocking children
SELF_TIMED = ("values", "bounds", "stats", "cli")
# decades of the first level of a full block that some workload reaches
BLOCK_DECADES = (0, 5, 6, 8, 10, 12)
SEGMENT = importlib.import_module("x0genus.genus").SEGMENT


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pass: Optional[int] = None  # the iter_blocks pass in flight
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[int, Optional[int], list[int]]:
        stack = self._stack()
        parent = stack[-1] if stack else self._pass
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _record(self, sid, name, start, parent, attrs) -> None:
        self.spans.append(Span(sid, name, start, perf_counter(), parent,
                               threading.get_ident(), attrs))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if name == BLOCK:
                bound = sig.bind(*args, **kwargs)
                attrs = {"lo": bound.arguments["lo"], "hi": bound.arguments["hi"]}
            sid, parent, stack = self._enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self._record(sid, name, start, parent, attrs)

        return traced

    def _wrap_pass(self, fn: Callable) -> Callable:
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = {k: bound.arguments[k] for k in ("lo", "hi", "threads")}
            inner = fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            pid = next(self._ids)
            outer, self._pass = self._pass, pid
            start = perf_counter()
            try:
                while True:
                    wid, wparent, wstack = self._enter()
                    wstart = perf_counter()
                    try:
                        blk = next(inner)
                    except StopIteration:
                        return
                    finally:
                        wstack.pop()
                        self._record(wid, WAIT, wstart, wparent, {})
                    yield blk
            finally:
                inner.close()
                self._pass = outer
                self._record(pid, PASS, start, parent, attrs)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for short, names in TRACED.items():
            home = importlib.import_module(f"x0genus.{short}")
            for attr in names:
                original = getattr(home, attr)
                name = f"{short}.{attr}"
                wrapper = self._wrap_pass(original) if name == PASS else self._wrap(name, original)
                holders = [(mod, key) for mod in modules
                           for key, value in vars(mod).items() if value is original]
                for mod, key in holders:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def write_spans(path: str, sets: list[list[Span]]) -> None:
    """Write the spans of each traced set as JSON lines."""
    with open(path, "w", encoding="utf-8") as f:
        for k, spans in enumerate(sets):
            for s in spans:
                f.write(json.dumps({**s._asdict(), "set": k}) + "\n")


def _union_length(intervals: Iterable[tuple[int, int]]) -> int:
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo + 1
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def layer_metrics(spans: list[Span], rows_out: int, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one op set from its spans."""
    dur = {s.id: s.end - s.start for s in spans}
    thread = {s.id: s.thread for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        # children nest without overlap on one thread; a pass is not blocking
        if s.name != PASS and s.parent in thread and thread[s.parent] == s.thread:
            covered[s.parent] += dur[s.id]

    def total(name: str) -> float:
        return sum(dur[s.id] for s in by_name[name])

    blocks = by_name[BLOCK]
    passes = by_name[PASS]
    busy = total(BLOCK)
    sieved = sum(s.attrs["hi"] - s.attrs["lo"] + 1 for s in blocks)
    requested = _union_length((s.attrs["lo"], s.attrs["hi"]) for s in passes)
    capacity = sum(s.attrs["threads"] * dur[s.id] for s in passes)
    m: dict[str, float] = {
        "arith.primes_up_to.calls": len(by_name["arith.primes_up_to"]),
        "arith.primes_up_to.s": total("arith.primes_up_to"),
        "arith.primes_in_progression.s": total("arith.primes_in_progression"),
        "arith.factorize.calls": len(by_name["arith.factorize"]),
        "arith.factorize.s": total("arith.factorize"),
        "genus.breakdown_block.blocks": len(blocks),
        "genus.breakdown_block.levels": sieved,
        "genus.breakdown_block.busy_s": busy,
    }
    full: dict[int, list[float]] = defaultdict(list)
    for s in blocks:
        if s.attrs["hi"] - s.attrs["lo"] + 1 == SEGMENT:
            full[len(str(s.attrs["lo"])) - 1].append(1e3 * dur[s.id])
    for d in BLOCK_DECADES:
        m[f"genus.block_ms.h1e{d}"] = statistics.median(full[d]) if full[d] else 0.0
    m.update({
        "genus.iter_blocks.passes": len(passes),
        "genus.iter_blocks.wait_s": total(WAIT),
        "genus.resieve_ratio": sieved / requested if requested else 0.0,
        "genus.parallel_efficiency": busy / capacity if capacity else 0.0,
        "genus.genus.calls": len(by_name["genus.genus"]),
        "genus.genus.s": total("genus.genus"),
    })
    for module in SELF_TIMED:
        m[f"{module}.self_s"] = sum(
            dur[s.id] - covered[s.id] for s in spans if s.name.split(".")[0] == module
        )
    m["cli.rows_out"] = rows_out
    m["cli.bytes_out"] = bytes_out
    return m
