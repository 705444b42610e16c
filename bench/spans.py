"""In-memory span tracing of the edanet package, from outside it.

``Tracer.install`` replaces every public function of the edanet modules
with a timing wrapper in each module namespace that holds it, which is
where callers look functions up: ``runtime`` calls ``conv2d`` through
``edanet.runtime.conv2d``, the CLI calls ``runtime.forward`` through the
module.  Spans are kept in memory as ``[name, start, end, parent, attrs]``
and written out once, when the run ends.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time


class Tracer:
    """Records a span for every call of a public edanet function while
    ``active``; calls made while inactive run the original function.
    Spans are recorded on the calling thread's stack, so only the main
    thread may call traced functions (worker threads inside ``conv2d``
    run untraced closures)."""

    def __init__(self):
        self.spans: list = []
        self.nets: list = []  # the network object of each forward span
        self.active = False
        self._stack: list = []
        self._patched: list = []

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("edanet.")
                        or inspect.isgeneratorfunction(fn)):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn)
                setattr(mod, attr, wrappers[id(fn)])
                self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _attrs_for(self, name: str, fn):
        """The attributes recorded for spans of ``name``, computed from the
        call's arguments and result after the call returns."""
        if name == "tensorops.conv2d":
            sig = inspect.signature(fn)

            def conv(args, kwargs, out):
                a = sig.bind(*args, **kwargs)
                a.apply_defaults()
                o, i, kh, kw = a.arguments["k"].weights.shape
                n, _, h, w = out.data.shape
                return {"macs": n * o * i * kh * kw * h * w,
                        "stride": a.arguments["stride"],
                        "dilation": a.arguments["dilation"]}
            return conv
        if name in ("tensorops.bilinear_resize", "tensorops.concat_channels"):
            return lambda args, kwargs, out: {"bytes": out.data.nbytes}
        if name == "netdef.expand_layer":
            return lambda args, kwargs, out: {"layer": args[0].name}
        if name == "runtime.forward":
            def forward(args, kwargs, out):
                self.nets.append(args[0])
                return {"net": args[0].name, "hw": list(args[2].data.shape[2:]),
                        "ref": len(self.nets) - 1}
            return forward
        return None

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        attrs_of = self._attrs_for(name, fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, out)
            return out

        return wrapper

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover.  Spans
    are recorded on one thread, so children never overlap each other."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def coverage(spans, windows) -> list:
    """Share of each (start, end) op window covered by top-level spans."""
    shares = []
    for t0, t1 in windows:
        covered = sum(min(s[2], t1) - max(s[1], t0) for s in spans
                      if s[3] < 0 and s[1] < t1 and s[2] > t0)
        shares.append(covered / (t1 - t0))
    return shares


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls only, so a
    recursive call is not counted twice), self seconds, the summed
    ``macs`` and ``bytes`` attributes, and the seconds of strided and of
    dilated convolutions."""
    own = self_times(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "macs": 0, "bytes": 0,
                                    "strided_s": 0.0, "dilated_s": 0.0})
        dur = s[2] - s[1]
        row["calls"] += 1
        row["self_s"] += own[i]
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            row["s"] += dur
        a = s[4]
        if a:
            row["macs"] += a.get("macs", 0)
            row["bytes"] += a.get("bytes", 0)
            if a.get("stride", 1) > 1:
                row["strided_s"] += dur
            if a.get("dilation", 1) > 1:
                row["dilated_s"] += dur
    return out


def forward_layers(spans, net_name: str) -> list:
    """Per-network-layer wall time of each ``runtime.forward`` on
    ``net_name``, as ``(forward attrs, forward seconds, {layer: seconds},
    readout seconds)``.  ``forward`` calls ``expand_layer`` once per layer
    just before running it, so a layer runs from its ``expand_layer`` call
    to the next one, and the last layer to the end of ``forward``.  The
    readout runs from the end of ``forward`` to the end of the
    ``infer_image`` that called it (upscale and argmax)."""
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    rows = []
    for i, s in enumerate(spans):
        if s[0] != "runtime.forward" or not s[4] or s[4]["net"] != net_name:
            continue
        marks = [spans[c] for c in children.get(i, ())
                 if spans[c][0] == "netdef.expand_layer"]
        layers: dict = {}
        for m, nxt in zip(marks, marks[1:] + [None]):
            end = nxt[1] if nxt is not None else s[2]
            layers[m[4]["layer"]] = layers.get(m[4]["layer"], 0.0) + end - m[1]
        parent = spans[s[3]] if s[3] >= 0 else None
        readout = (parent[2] - s[2]
                   if parent is not None and parent[0] == "runtime.infer_image"
                   else 0.0)
        rows.append((s[4], s[2] - s[1], layers, readout))
    return rows
