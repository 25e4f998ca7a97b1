"""Outside-in tracing: spans recorded around calls into the package's layers.

Functions are wrapped where their caller looks them up. `mip`, `opf` and
`microgrid` import `solve_convex`, `solve_mixed_binary` and `pf_template` by
name, so each of those module attributes is wrapped on its own; wrapping only
`ddopf.ipm.solve_convex` would miss every branch & bound node. Methods are
wrapped on their class.

Spans live in memory as parallel lists (name, start, end, parent) and are
written out once, when the run ends. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Callable


def patch(owner, attr: str, make_wrapper: Callable) -> Callable[[], None]:
    """Replace owner.attr by make_wrapper(original); returns the undo callable."""
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
    return lambda: setattr(owner, attr, original)


@contextlib.contextmanager
def call_marks(owner, attr: str, on_entry: Callable[[], None] = lambda: None):
    """Yield a list that receives perf_counter() at every entry to owner.attr.

    The benchmark uses the marks as op boundaries inside one package call, for
    example the start of each closed-loop step or each enumeration node.
    on_entry() runs at each entry before the mark is taken.
    """
    marks: list[float] = []

    def make(original):
        def wrapper(*args, **kwargs):
            on_entry()
            marks.append(time.perf_counter())
            return original(*args, **kwargs)

        return wrapper

    undo = patch(owner, attr, make)
    try:
        yield marks
    finally:
        undo()


class Tracer:
    """Span recorder; `enabled` False makes every wrapper a plain pass-through."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, owner, attr: str, name: str, on_return: Callable | None = None) -> None:
        """Record a span named `name` around every call of owner.attr.

        on_return(args, kwargs, result) may return a dict stored with the span.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                idx = len(tracer.names)
                tracer.names.append(name)
                tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
                tracer.ends.append(0.0)
                tracer._stack.append(idx)
                tracer.starts.append(time.perf_counter())
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.ends[idx] = time.perf_counter()
                    tracer._stack.pop()
                if on_return is not None:
                    tracer.attrs[idx] = on_return(args, kwargs, result)
                return result

            return wrapper

        self._undo.append(patch(owner, attr, make))

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def paused(self):
        """Run untraced: input generation and correctness checks are not ops."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def write_jsonl(self, path) -> None:
        """One span per line: index, name, start and end (s), parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "i": idx,
                            "name": name,
                            "start": self.starts[idx] - t0,
                            "end": self.ends[idx] - t0,
                            "parent": self.parents[idx],
                        }
                    )
                    + "\n"
                )
