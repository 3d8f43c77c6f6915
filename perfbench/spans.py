"""In-memory spans around softdss's public functions, for the traced run.

`install(tracer)` replaces every layer function listed in `LAYERS` with a
wrapper that records a span (name, start, end, parent) and a few counts
read from arguments and return values.  Each wrapper is installed at every
name a caller looks up: the defining module, every other `softdss` module
that imported the function by name, and the class attribute for methods.
`Patches.remove()` puts every original object back.

The untraced run never calls `install`, so it runs softdss unmodified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (layer name, defining module, attribute path).  Several targets may share
# one layer name: fuzzy.mf.gradient sums the four membership classes.
LAYERS = (
    ("tace.generate", "softdss.tace", "generate"),
    ("tace.split", "softdss.tace", "split"),
    ("tace.normalize", "softdss.tace", "normalize"),
    ("tace.normalize_inputs", "softdss.tace", "normalize_inputs"),
    ("linalg.lse_batch", "softdss.linalg", "lse_batch"),
    ("linalg.rls_solve", "softdss.linalg", "rls_solve"),
    ("anfis.forward_batch", "softdss.anfis", "forward_batch"),
    ("anfis.premise_gradient", "softdss.anfis", "premise_gradient"),
    ("anfis.hybrid_epoch", "softdss.anfis", "hybrid_epoch"),
    ("anfis.anfis_train", "softdss.anfis", "anfis_train"),
    ("fuzzy.LinguisticVariable.fuzzify", "softdss.fuzzy", "LinguisticVariable.fuzzify"),
    ("fuzzy.mf.gradient", "softdss.fuzzy", "GaussianMF.gradient"),
    ("fuzzy.mf.gradient", "softdss.fuzzy", "GBellMF.gradient"),
    ("fuzzy.mf.gradient", "softdss.fuzzy", "TrapezoidMF.gradient"),
    ("fuzzy.mf.gradient", "softdss.fuzzy", "TriangleMF.gradient"),
    ("fuzzy.MamdaniModel.infer_batch", "softdss.fuzzy", "MamdaniModel.infer_batch"),
    ("mamdani.wang_mendel", "softdss.mamdani", "wang_mendel"),
    ("mamdani.decode_centers", "softdss.mamdani", "decode_centers"),
    ("mamdani.ga_optimize", "softdss.mamdani", "ga_optimize"),
    ("mamdani.surrogate_gradient", "softdss.mamdani", "surrogate_gradient"),
    ("mamdani.gd_tune", "softdss.mamdani", "gd_tune"),
    ("mlp.mlp_gradient", "softdss.mlp", "mlp_gradient"),
    ("mlp.mlp_loss", "softdss.mlp", "mlp_loss"),
    ("mlp.scg_train", "softdss.mlp", "scg_train"),
    ("mlp.mlp_forward_batch", "softdss.mlp", "mlp_forward_batch"),
    ("cart.grow", "softdss.cart", "grow"),
    ("cart.prune_sequence", "softdss.cart", "prune_sequence"),
    ("cart.predict_batch", "softdss.cart", "predict_batch"),
    ("modelio.save_model", "softdss.modelio", "save_model"),
    ("modelio.load_model", "softdss.modelio", "load_model"),
    ("modelio.predict_normalized", "softdss.modelio", "predict_normalized"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


class Tracer:
    """Spans as parallel lists (cheap to append), plus per-layer counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.returns = Counter()        # calls that returned (did not raise)
        self.infer_rows = 0             # rows passed to MamdaniModel.infer_batch
        self.ga_calls = 0
        self.ga_decodes = 0             # decode_centers calls inside ga_optimize
        self.ga_distinct = 0            # distinct gene vectors among them, per GA run
        self._ga_seen: set | None = None
        self.ladder_len = []            # len(prune_sequence(...)) per call
        self.grow_leaves = []           # leaves of each tree grow() returns

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(float("nan"))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write(self, path) -> None:
        """All spans as JSON: names table plus [name_id, start, end, parent] rows."""
        ids = {n: i for i, n in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [ids[n], round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"names": list(ids), "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh)
            fh.write("\n")

    # -- counts read from arguments and return values -------------------------

    def on_call(self, name, args):
        if name == "fuzzy.MamdaniModel.infer_batch":
            self.infer_rows += np.shape(args[1])[0]
        elif name == "mamdani.ga_optimize":
            self.ga_calls += 1
            self._ga_seen = set()
        elif name == "mamdani.decode_centers" and self._ga_seen is not None:
            self.ga_decodes += 1
            key = np.asarray(args[1], dtype=float).tobytes()
            if key not in self._ga_seen:
                self._ga_seen.add(key)
                self.ga_distinct += 1

    def on_return(self, name, result):
        self.returns[name] += 1
        if name == "mamdani.ga_optimize":
            self._ga_seen = None
        elif name == "cart.prune_sequence":
            self.ladder_len.append(len(result))
        elif name == "cart.grow":
            self.grow_leaves.append(sys.modules["softdss.cart"].count_leaves(result))


def self_times(spans) -> dict[str, float]:
    """Per name: sum of span durations minus the time covered by direct children.

    `spans` is a sequence of (name, start, end, parent_index), parent -1 for
    a root.  Child intervals are clipped to their parent and merged, so
    overlapping or back-to-back children are not subtracted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


def _wrap(name, fn, tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.on_call(name, args)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.on_return(name, result)
        return result

    return wrapper


class Patches:
    """Record of every attribute `install` replaced, so it can be undone."""

    def __init__(self):
        self.replaced: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _softdss_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "softdss" or n.startswith("softdss."))]


def install(tracer: Tracer) -> Patches:
    """Wrap every layer function at every name a softdss caller looks it up."""
    patches = Patches()
    modules = _softdss_modules()
    for name, module_name, path in LAYERS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            patches.replaced.append((cls, attr, original))
            setattr(cls, attr, _wrap(name, original, tracer))
            continue
        original = getattr(module, path)
        wrapper = _wrap(name, original, tracer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.replaced.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return patches


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    spans = tracer.spans()
    calls = Counter(tracer.names)
    selfs = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    lse_calls = calls.get("linalg.lse_batch", 0)
    out["linalg.lse_batch.ok_ratio"] = (
        tracer.returns["linalg.lse_batch"] / lse_calls if lse_calls else 0.0, "ratio")
    out["fuzzy.MamdaniModel.infer_batch.rows"] = (tracer.infer_rows, "count")
    out["mamdani.ga.decodes_per_fit"] = (
        tracer.ga_decodes / tracer.ga_calls if tracer.ga_calls else 0.0, "count")
    out["mamdani.ga.distinct_ratio"] = (
        tracer.ga_distinct / tracer.ga_decodes if tracer.ga_decodes else 0.0, "ratio")
    out["cart.ladder_len"] = (float(np.mean(tracer.ladder_len)) if tracer.ladder_len else 0.0,
                              "count")
    out["cart.leaves"] = (float(np.mean(tracer.grow_leaves)) if tracer.grow_leaves else 0.0,
                          "count")
    return out
