"""Outside-in tracer: wraps public library functions by rebinding names.

The library is not edited. For each traced function the tracer replaces
every module attribute in the ``ris_lab`` package that refers to it, so a
name imported by value (``from .geometry import select_ris`` in
``datagen`` and ``cli``) is traced as well as the defining module's own.
Spans are kept in memory with their parent, so each layer's self time is
its duration minus the part its traced children cover. ``write`` stores
them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import pkgutil
import time

# (module, attribute path) of every traced function; the layer name is
# "<module>.<function>".
LAYERS = (
    ("clinalg", "solve_hpd"),
    ("autodiff", "Tensor.backward"),
    ("transmit", "weighted_sum_rate_graph"),
    ("transmit", "weighted_sum_rate"),
    ("transmit", "mmse_directions"),
    ("transmit", "sample_channels"),
    ("transmit", "save_dataset"),
    ("transmit", "load_dataset"),
    ("baseline", "project_simplex"),
    ("baseline", "ao_optimize"),
    ("policy", "infer"),
    ("policy", "train"),
    ("policy", "adam_step"),
    ("policy", "save_params"),
    ("scenes", "random_scene"),
    ("geometry", "select_ris"),
    ("datagen", "generate_dataset"),
    ("vision", "render_top_view"),
    ("vision", "detect_objects"),
    ("vision", "canny_edges"),
    ("vision", "approx_polygon"),
    ("vision", "recover_scene"),
)

LAYER_NAMES = tuple(f"{mod}.{path.split('.')[-1]}" for mod, path in LAYERS)

# Writers whose output size is counted: name -> index of the path argument.
_WRITERS = {"transmit.save_dataset": 0, "policy.save_params": 0}


def _file_bytes(path) -> int:
    """Size of a written artifact plus its JSON sidecar."""
    total = 0
    for p in (str(path), str(path) + ".json"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


class Tracer:
    """Records one span per traced call while installed and active.

    Installing does not activate: the workloads switch recording on for
    their measured loop only.
    """

    def __init__(self):
        self.names = list(LAYER_NAMES)
        # span columns: layer index, request, parent span, start, end,
        # time covered by child spans
        self.spans = []
        self.request = -1
        self.requests = []
        self.active = False
        self.bytes_written = 0
        self._stack = []
        self._undo = []

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer in every ris_lab module that names it."""
        import ris_lab

        modules = [ris_lab] + [
            importlib.import_module(f"ris_lab.{info.name}")
            for info in pkgutil.iter_modules(ris_lab.__path__)]
        for index, (mod_name, path) in enumerate(LAYERS):
            owner = importlib.import_module(f"ris_lab.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, index)
            self._rebind(owner, attr, original, wrapper)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, index):
        name = LAYER_NAMES[index]
        writer_arg = _WRITERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [index, self.request, parent, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[3]
                if writer_arg is not None:
                    self.bytes_written += _file_bytes(args[writer_arg])
        return traced

    # --- requests and results ----------------------------------------------

    def begin_request(self, label):
        """Tag the spans that follow with a new request identifier."""
        self.request = len(self.requests)
        self.requests.append(label)

    def layer_totals(self):
        """Per layer: (calls, self seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for index, _, _, start, end, child in self.spans:
            calls[index] += 1
            self_s[index] += (end - start) - child
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def nested_calls(self, inner, outer):
        """Calls of layer `inner` made while layer `outer` was running."""
        i_in, i_out = self.names.index(inner), self.names.index(outer)
        count = 0
        for span in self.spans:
            if span[0] != i_in:
                continue
            parent = span[2]
            while parent >= 0:
                if self.spans[parent][0] == i_out:
                    count += 1
                    break
                parent = self.spans[parent][2]
        return count

    def write(self, path):
        """Store every span as gzipped columnar JSON (times in ns from the
        first span)."""
        t0 = self.spans[0][3] if self.spans else 0.0
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        doc = {
            "layers": self.names,
            "requests": self.requests,
            "layer": list(cols[0]),
            "request": list(cols[1]),
            "parent": list(cols[2]),
            "start_ns": [round((t - t0) * 1e9) for t in cols[3]],
            "end_ns": [round((t - t0) * 1e9) for t in cols[4]],
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
