"""Span tracer that wraps the public functions of each emgpr module.

The wrappers live here, not in the package: `Tracer.install` rebinds every
module attribute that refers to a wrapped function (so `evaluate` calling
its imported `extract_matrix` is seen too) and `Tracer.uninstall` restores
the originals.  Spans are kept in memory as

    [name, start, end, parent_index, run_id]

and written out at the end of a run.  A span's self time is its duration
minus the time its child spans cover.  Time the wrappers spend keying
inputs for the waste counters is charged to no layer; it is summed in
`hook_s` and reported as part of the tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: Which layer each span belongs to (the package module it wraps).
LAYERS = ("dataset", "preprocess", "features", "reduce", "classify",
          "evaluate", "selection")


def fingerprint(array) -> bytes:
    """Cheap content key: shape plus a digest of every 7th sample.

    Two recordings or windows that differ anywhere in a noisy signal differ
    at the sampled positions too, so this separates distinct inputs without
    hashing every byte.
    """
    a = np.asarray(array)
    h = hashlib.blake2b(repr(a.shape).encode(), digest_size=16)
    h.update(np.ascontiguousarray(a[..., ::7]).tobytes())
    return h.digest()


def _window_samples(window):
    return window.samples if hasattr(window, "samples") else np.asarray(window)


class Tracer:
    def __init__(self):
        self.spans = []
        self.hook = []  # per span: seconds spent keying its inputs
        self.stack = []
        self.run = None
        # counters and key sets, per run id
        self.counts = defaultdict(lambda: defaultdict(float))
        self.keys = defaultdict(lambda: defaultdict(set))
        self.cell_keys = defaultdict(lambda: defaultdict(set))
        self._patches = []

    # -- recording --------------------------------------------------------

    def count(self, name, value=1.0):
        self.counts[self.run][name] += value

    def key(self, name, key):
        self.keys[self.run][name].add(key)

    def _in(self, prefix) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span; before/after update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_hook = time.perf_counter()
            if before is not None:
                before(self, args, kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.run]
            self.spans.append(span)
            self.hook.append(0.0)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            self.hook[index] = (span[1] - t_hook) + (time.perf_counter() - span[2])
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def _rebind(self, modules, original, replacement):
        """Point every module attribute that is `original` at `replacement`."""
        hits = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))
                    hits += 1
        return hits

    def install(self, emgpr, *callers):
        """Wrap the public functions of every layer the benchmark uses.

        `callers` are the benchmark's own modules that imported those
        functions by name.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "emgpr" or name.startswith("emgpr."))]
        modules.extend(callers)
        for name, fn, before, after in _targets(emgpr):
            if not self._rebind(modules, fn, self.wrap(name, fn, before, after)):
                raise RuntimeError(f"trace: nothing references {name}")
        for cls in _model_classes(emgpr.classify):
            original = cls.predict
            cls.predict = self.wrap("classify.predict", original, after=_after_predict)
            self._patches.append((cls, "predict", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self, run):
        """name -> summed self seconds over the spans of one run."""
        covered = defaultdict(float)
        for i, (_, start, end, parent, r) in enumerate(self.spans):
            if r == run and parent >= 0:
                covered[parent] += (end - start) + self.hook[i]
        out = defaultdict(float)
        for i, (name, start, end, _, r) in enumerate(self.spans):
            if r == run:
                out[name] += (end - start) - covered[i]
        return out

    def span_counts(self, run):
        out = defaultdict(int)
        for name, _, _, _, r in self.spans:
            if r == run:
                out[name] += 1
        return out

    def hook_seconds(self, run):
        return sum(h for h, s in zip(self.hook, self.spans) if s[4] == run)

    def unique_ratio(self, run, name):
        """Distinct inputs keyed by the wrapper of `name` ÷ its calls."""
        calls = self.span_counts(run)[name]
        return len(self.keys[run][name]) / calls if calls else 0.0

    def cells(self, run):
        """(cells computed, distinct (window, channel, feature) cells)."""
        computed = self.counts[run]["features.cells"]
        distinct = sum(
            len(fids) * n_ch for (_, n_ch), fids in self.cell_keys[run].items()
        )
        return computed, distinct

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# what is wrapped, and the counters each wrapper keeps


def _before_design(tr, args, kwargs):
    tr.key("preprocess.design_filters", (args[0], float(args[1])))


def _before_apply(tr, args, kwargs):
    rec = args[0]
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    tr.key("preprocess.apply_filters", (spec, fingerprint(rec.channels)))


def _after_segment(tr, args, kwargs, windows):
    tr.count("preprocess.segment.windows", len(windows))


def _count_cells(tr, set_spec, windows):
    if tr._in("features."):  # nested call: the outer one counted it
        return
    n_feat = len(set_spec.features)
    for w in windows:
        samples = _window_samples(w)
        n_ch = samples.shape[0]
        tr.count("features.cells", n_feat * n_ch)
        tr.cell_keys[tr.run][(fingerprint(samples), n_ch)].update(set_spec.features)


def _before_extract(tr, args, kwargs):
    _count_cells(tr, args[0], [args[1]])


def _before_extract_matrix(tr, args, kwargs):
    _count_cells(tr, args[0], args[1])


def _after_fit_ulda(tr, args, kwargs, projection):
    tr.count("reduce.d_out_sum", projection.d_out)


def _after_train(tr, args, kwargs, model):
    machines = getattr(model, "machines", None)
    if machines is not None:
        tr.count("classify.svm.models")
        tr.count("classify.svm.converged", float(bool(model.converged)))
        tr.count("classify.svm.support_vectors",
                 sum(len(sv) for sv, _, _ in machines.values()))


def _after_predict(tr, args, kwargs, labels):
    tr.count("classify.predict.rows", np.size(labels))


def _after_crossvalidate(tr, args, kwargs, report):
    tr.count("evaluate.folds", len(report.folds) + len(report.failures))


def _after_select(tr, args, kwargs, trace):
    tr.count("selection.steps", len(trace.steps))


def _targets(emgpr):
    ds, pp, ft = emgpr.dataset, emgpr.preprocess, emgpr.features
    rd, cl, ev, sl = emgpr.reduce, emgpr.classify, emgpr.evaluate, emgpr.selection
    return (
        ("dataset.generate_synthetic", ds.generate_synthetic, None, None),
        ("dataset.mix_awgn", ds.mix_awgn, None, None),
        ("preprocess.design_filters", pp.design_filters, _before_design, None),
        ("preprocess.apply_filters", pp.apply_filters, _before_apply, None),
        ("preprocess.segment", pp.segment, None, _after_segment),
        ("preprocess.normalize_features", pp.normalize_features, None, None),
        ("features.extract_matrix", ft.extract_matrix, _before_extract_matrix, None),
        ("features.extract", ft.extract, _before_extract, None),
        ("reduce.fit_ulda", rd.fit_ulda, None, _after_fit_ulda),
        ("reduce.project", rd.project, None, None),
        ("classify.train", cl.train, None, _after_train),
        ("evaluate.crossvalidate", ev.crossvalidate, None, _after_crossvalidate),
        ("selection.forward_select", sl.forward_select, None, _after_select),
    )


def _model_classes(classify):
    """Trained-model classes: crossvalidate calls model.predict directly."""
    return [
        obj for obj in vars(classify).values()
        if isinstance(obj, type) and obj.__module__ == classify.__name__
        and callable(getattr(obj, "predict", None))
    ]
