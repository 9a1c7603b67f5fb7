"""Spans around the public entry points of each ckspec layer.

The program is not changed: ``Tracer.install`` replaces each entry point by
a wrapper, under every name its callers look it up by.  ``spectra`` and
``cli`` bind their imports by name, so a function is patched in the module
that defines it and in each module that imported it; methods are patched on
their class.  ``uninstall`` puts the originals back.

Spans stay in memory as parallel arrays (name, start, end, parent) and are
written out by ``dump`` when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict
from functools import wraps

# span name -> the (module, attribute) pairs it wraps; a dotted attribute
# names a method on a class
LAYERS = {
    "model.gm": [("ckspec.model", "Cycle.gm"), ("ckspec.model", "Cycle.weight_product")],
    "exact.radius_new": [("ckspec.exact", "ExactRadius.__post_init__")],
    "exact.radius_cmp": [("ckspec.exact", "ExactRadius.cmp")],
    "exact.pow_equals.qpoint": [("ckspec.exact", "QPoint.pow_equals")],
    "exact.pow_equals.circle": [("ckspec.exact", "CirclePoint.pow_equals")],
    "exact.pow_equals.root": [("ckspec.exact", "RootPoint.pow_equals")],
    "exact.rational_between": [("ckspec.exact", "rational_between"),
                               ("ckspec.spectra", "rational_between")],
    "radialset.canonicalize": [("ckspec.radialset", "canonicalize"),
                               ("ckspec.spectra", "canonicalize")],
    "radialset.browder": [("ckspec.radialset", "complement_components"),
                          ("ckspec.spectra", "complement_components"),
                          ("ckspec.radialset", "remove_open_gap_traces"),
                          ("ckspec.spectra", "remove_open_gap_traces")],
    "radialset.root_intersection": [("ckspec.radialset", "root_intersection")],
    "spectra.essential": [("ckspec.spectra", "essential_spectra"),
                          ("ckspec.cli", "essential_spectra")],
    "spectra.fredholm": [("ckspec.spectra", "fredholm_data"),
                         ("ckspec.cli", "fredholm_data")],
    "spectra.grid": [("ckspec.spectra", "sample_grid")],
    "oracle.kernel": [("ckspec.oracle", "chain_kernel_dim"),
                      ("ckspec.spectra", "chain_kernel_dim"),
                      ("ckspec.cli", "chain_kernel_dim")],
    "oracle.defect": [("ckspec.oracle", "chain_defect_dim"),
                      ("ckspec.spectra", "chain_defect_dim"),
                      ("ckspec.cli", "chain_defect_dim")],
    "oracle.in_cert": [("ckspec.oracle", "in_certificate"),
                       ("ckspec.cli", "in_certificate")],
    "oracle.out_cert": [("ckspec.oracle", "out_certificate"),
                        ("ckspec.cli", "out_certificate")],
    # cli looks dumps up on the json module, so json.dumps is patched there
    "cli.report": [("ckspec.spectra", "SpectralReport.to_json"),
                   ("json", "dumps")],
}

OP = "op"  # the root span of one CLI call


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # counters measured where the work happens
        self.max_bits = 0            # largest base integer cmp raises to a power
        self.nonempty = 0            # root intersections that are not empty
        self.grid_points = 0         # sample points of self-check grids
        self.out_cert_n = 0          # sum of the step each OUT certificate reached

    # --- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; after(args, result) sees each call."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, names, starts, ends, parents = (
            self._stack, self.name, self.start, self.end, self.parent)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # --- patching ----------------------------------------------------------

    def install(self):
        afters = {
            "exact.radius_cmp": self._after_cmp,
            "radialset.root_intersection": self._after_root_intersection,
            "spectra.grid": self._after_grid,
            "oracle.out_cert": self._after_out_cert,
        }
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, afters.get(name)))

    def uninstall(self):
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def _after_cmp(self, args, result):
        a, b = args
        bits = max(a.sq.numerator.bit_length(), a.sq.denominator.bit_length(),
                   b.sq.numerator.bit_length(), b.sq.denominator.bit_length())
        if bits > self.max_bits:
            self.max_bits = bits

    def _after_root_intersection(self, args, result):
        if result is not None:
            self.nonempty += 1

    def _after_grid(self, args, result):
        self.grid_points += len(result)

    def _after_out_cert(self, args, result):
        self.out_cert_n += max(entry["n"] for entry in result.details.values())

    # --- results -----------------------------------------------------------

    def op(self, fn):
        """fn, run as the root span of one operation."""
        return self.wrap(OP, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """calls and busy_s (self time) per span name."""
        child = defaultdict(float)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "busy_s": 0.0} for n in self.names}
        for i, nid in enumerate(self.name):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["busy_s"] += self.end[i] - self.start[i] - child.get(i, 0.0)
        return out

    def dump(self, path: str):
        """Write every span: a JSON header line, then one line per span of
        name index, start, end and parent index (-1 for a root span)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start", "end", "parent"]}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent):
                fh.write("%d %.9f %.9f %d\n" % row)
