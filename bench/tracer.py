"""In-memory span tracer for the benchmark's traced pass.

Spans are recorded around calls into the library's public entry points,
from outside: a hook replaces an attribute (a method on a built object, a
function in a module, or a method on a class) with a wrapper that records
``[name, start, end, parent]``.  A layer's self time is its span's
duration minus the part its child spans cover.

Per-µop calls (``fold=True``) would cost one span each, so they are
folded instead: every enclosing span carries one aggregate child span
with the folded calls' total time and count.  That bounds memory by the
number of boundary-level spans, not the number of µops.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    """Records spans and per-layer self time for one traced unit."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]``; folded spans append
        #: ``folded_seconds, folded_calls``.  ``parent`` is -1 at the root.
        self.spans: list[list] = []
        #: open frames: ``[span index, child seconds, folded seconds,
        #: folded calls, folded layer]``; the bottom frame is the root.
        self._stack: list[list] = [[-1, 0.0, 0.0, 0, None]]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: hooks whose target no longer exists (``owner.attr`` strings)
        self.missing: list[str] = []

    def hook(self, owner, attr: str, layer: str, *, fold: bool = False,
             after=None) -> None:
        """Wrap ``owner.attr`` so each call records a ``layer`` span.

        ``after(args, result)`` runs once the span is closed, to count work
        where it happens (cache hits, bytes written).  A missing target is
        recorded and warned about, never raised: the end-to-end run must
        survive a rename in the library.
        """
        target = getattr(owner, attr, None)
        if target is None:
            name = getattr(owner, "__name__", type(owner).__name__)
            self.missing.append(f"{name}.{attr}")
            print(f"bench: warning: no {name}.{attr}; layer {layer!r} "
                  "reads 0", file=sys.stderr)
            return
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        wrapper = self._folded(target, layer) if fold else self._spanned(
            target, layer, after
        )
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, layer: str, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1][0]]
            spans.append(span)
            frame = [index, 0.0, 0.0, 0, None]
            stack.append(frame)
            span[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                self._close(layer, frame, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _folded(self, fn, layer: str):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            frame = stack[-1]
            frame[2] += clock() - start
            frame[3] += 1
            frame[4] = layer
            return result

        return wrapper

    def _close(self, layer: str, frame: list, start: float, end: float) -> None:
        index, children, folded, folded_calls, folded_layer = frame
        duration = end - start
        if folded_calls:
            # One aggregate span for every folded call under this span.
            self.spans.append([folded_layer, start, end, index, folded, folded_calls])
            self.self_s[folded_layer] += folded
            self.calls[folded_layer] += folded_calls
        self.self_s[layer] += duration - children - folded
        self.calls[layer] += 1
        self._stack[-1][1] += duration

    def layer_metrics(self, layers: list[str], traced_wall: float) -> dict:
        """``<layer>.self_s``/``.calls``/``.share`` for every named layer."""
        out: dict[str, float] = {}
        for layer in layers:
            self_s = self.self_s.get(layer, 0.0)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.share"] = self_s / traced_wall if traced_wall else 0.0
        return out
