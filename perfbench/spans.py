"""Outside-in layer trace: wraps public frobstab functions in timed spans.

Each wrapped call is a span.  A span stack gives every span's self time
(its duration minus the time its child spans cover), so self times add up
to the traced time.  Size counters (equation rows, matrix cells, ranks,
module dims) are computed after the call; the time that takes is hidden
from every open span, so counting does not show up as self time.

`install` replaces a function in every `frobstab` module namespace that
binds it, and a method on its class; `uninstall` restores the originals.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _hom_a_size(args, out):
    m, n_ = args
    return {"eq_rows": m.algebra.dim * m.dim * n_.dim}


def _out_dim(args, out):
    return {"out_dim": out.dim}


def _kernel_size(args, out):
    mat, e = args[0], args[0].entries
    return {
        "cells": len(e),
        # tuple.count is fast on GF(p)'s int zeros; Fractions need a truth test each.
        "nnz": len(e) - e.count(0) if mat.field.characteristic else sum(map(bool, e)),
        "rows": mat.nrows,
        "rank": mat.ncols - out.dim,
    }


# (span name, module or class path, attribute, size counter)
TARGETS = (
    ("stab.hom_A", "frobstab.stab", "hom_A", _hom_a_size),
    ("stab.null_homotopy_operator", "frobstab.stab", "null_homotopy_operator", None),
    ("stab.stable_hom", "frobstab.stab", "stable_hom", None),
    ("stab.shift", "frobstab.stab", "shift_plus", _out_dim),
    ("stab.shift", "frobstab.stab", "shift_minus", _out_dim),
    ("stab.stable_center", "frobstab.stab", "stable_center", None),
    ("stab.tate0", "frobstab.stab", "tate0", None),
    ("stab.factoring_ideal_oracle", "frobstab.stab", "factoring_ideal_oracle", None),
    ("stab.enveloping", "frobstab.stab", "stable_center_via_enveloping", None),
    ("stab.enveloping", "frobstab.stab", "enveloping_comparison", None),
    ("modrep.quotient_module", "frobstab.modrep", "quotient_module", None),
    ("modrep.submodule", "frobstab.modrep", "submodule", None),
    ("modrep.canonical_embedding", "frobstab.modrep", "canonical_embedding", None),
    ("modrep.free_module", "frobstab.modrep", "free_module", _out_dim),
    ("modrep.hom_bimodule", "frobstab.modrep", "hom_bimodule", None),
    ("modrep.validate_module", "frobstab.modrep", "validate_module", None),
    ("linalg.kernel_basis", "frobstab.linalg:Matrix", "kernel_basis", _kernel_size),
    ("linalg.from_vectors", "frobstab.linalg:Subspace", "from_vectors", None),
    ("linalg.reduce", "frobstab.linalg:Subspace", "reduce", None),
    ("linalg.matmul", "frobstab.linalg:Matrix", "__matmul__", None),
    ("linalg.kron", "frobstab.linalg", "kron", None),
    ("linalg.solve", "frobstab.linalg:Matrix", "solve", None),
    ("linalg.inverse", "frobstab.linalg:Matrix", "inverse", None),
    ("algebra.mul", "frobstab.algebra:StructureAlgebra", "mul", None),
    ("algebra.validate", "frobstab.algebra:StructureAlgebra", "validate", None),
    ("algebra.center_basis", "frobstab.algebra:StructureAlgebra", "center_basis", None),
    ("algebra.tensor", "frobstab.algebra", "tensor", None),
    ("frobenius.check_identities", "frobstab.frobenius", "check_identities", None),
    ("frobenius.derive_system", "frobstab.frobenius", "derive_system", None),
    ("frobenius.enveloping_system", "frobstab.frobenius", "enveloping_system", None),
)

ROOT = "query"


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # open spans: [start, child time]
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> dict:
        """Return the stats gathered so far and start a fresh collection."""
        out, self.stats = self.stats, defaultdict(lambda: defaultdict(int))
        return out

    def wrap(self, name: str, fn, size=None):
        stack, clock, tracer = self.stack, time.perf_counter, self

        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st = tracer.stats[name]
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - frame[1]
            if size is not None:
                t0 = clock()
                for k, v in size(args, out).items():
                    st[k] += v
                hidden = clock() - t0
                for fr in stack:
                    fr[0] += hidden
            return out

        return span

    def run(self, fn):
        """Call fn as a root span; its self time is time outside every wrapped function."""
        return self.wrap(ROOT, fn)()

    def install(self) -> None:
        for name, path, attr, size in TARGETS:
            mod_name, _, cls_name = path.partition(":")
            owner = sys.modules[mod_name]
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, size))
                else:
                    new = self.wrap(name, raw, size)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self.wrap(name, orig, size)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "frobstab" or mod is None:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)
