"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces every module-level public function of the
photonthin modules, wherever a photonthin module refers to it by name,
with a wrapper that records a span: name, start, end, the enclosing span,
the arguments and the result. Spans stay in memory; the summaries are
computed after the traced work ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from photonthin import approximation, cli, errors, montecarlo, pmf, thinning
from photonthin.errors import PhotonThinError

LAYERS = {"pmf": pmf, "thinning": thinning, "approximation": approximation,
          "montecarlo": montecarlo, "cli": cli}

ERROR_TYPES = sorted(
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, PhotonThinError)
)


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None
    child_ns: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.raised: Counter = Counter()
        self._raised_objs: list[BaseException] = []
        self._local = threading.local()
        self._patched: list[tuple[dict, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, args: tuple = (), kwargs: dict | None = None):
        stack = self._stack()
        record = Span(name, 0, parent=stack[-1] if stack else None, args=args, kwargs=kwargs or {})
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        record.start = time.perf_counter_ns()
        try:
            yield record
        except PhotonThinError as exc:
            if not any(exc is seen for seen in self._raised_objs):
                self._raised_objs.append(exc)
                self.raised[type(exc).__name__] += 1
            raise
        finally:
            record.end = time.perf_counter_ns()
            stack.pop()
            if record.parent is not None:
                self.spans[record.parent].child_ns += record.end - record.start

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, args, kwargs) as record:
                record.result = fn(*args, **kwargs)
                return record.result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        replacements = {}
        for layer, module in LAYERS.items():
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    replacements[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "photonthin" or mod_name.startswith("photonthin."):
                namespace = vars(module)
                for attr, obj in list(namespace.items()):
                    wrapper = replacements.get(id(obj))
                    if wrapper is not None:
                        self._patched.append((namespace, attr, obj))
                        namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._patched):
            namespace[attr] = obj
        self._patched.clear()

    def by_name(self) -> dict[str, list[Span]]:
        grouped = defaultdict(list)
        for s in self.spans:
            grouped[s.name].append(s)
        return grouped


def self_seconds(spans: list[Span]) -> float:
    return sum(s.end - s.start - s.child_ns for s in spans) / 1e9
