"""Outside-in tracer: spans and counters around ultrahom's public functions.

Nothing under ``src/`` knows about it.  ``install`` wraps each traced
function where callers look it up: a module-level function is rebound
in every ``ultrahom.*`` module that holds the same object (the engines
bind names with ``from .partial_iso import extend``), and a method is
replaced on its class.  ``uninstall`` puts every original back.

A span records (name, start, end, parent span, trial id) in memory;
``write_spans`` writes them when the run ends.  Self time is a span's
duration minus the time its child spans cover.  Hot leaves are counted,
not timed, because timing them would swamp the run.
"""

from __future__ import annotations

import sys
import time
from array import array

# (layer metric name, module, attribute); one name may cover several targets.
SPANS = (
    ("graphs.alice_witness", "graphs", "GraphSession.alice_witness"),
    ("graphs.kn_free_check", "graphs", "GraphSession.kn_free_check"),
    ("graphs.replay", "graphs", "GraphSession.replay"),
    ("partial_iso.validate", "partial_iso", "validate"),
    ("partial_iso.extend", "partial_iso", "extend"),
    ("partial_iso.components", "partial_iso", "ComponentView.of"),
    ("partial_iso.compose", "partial_iso", "compose"),
    ("partial_iso.power", "partial_iso", "power"),
    ("words.chase", "words", "chase"),
    ("words.evaluate", "words", "evaluate"),
    ("words.largest_defined_prefix", "words", "largest_defined_prefix"),
    ("words.check_word_condition", "words", "check_word_condition"),
    ("perms.closure", "perms", "closure"),
    ("perms.generates_symmetric", "perms", "generates_symmetric"),
    ("perms.word_to", "perms", "word_to"),
    ("oracles.oracle_from_description", "oracles", "oracle_from_description"),
    ("henson.density_witness_henson", "henson", "density_witness_henson"),
    ("henson.one_point_extend", "henson", "one_point_extend"),
    ("henson.pad_components", "henson", "pad_components"),
    ("henson.chain_link", "henson", "chain_link"),
    ("henson.neigh_extend", "henson", "neigh_extend"),
    ("henson.build_conjugator", "henson", "build_conjugator"),
    ("omega_kn.density_witness_omega", "omega_kn", "density_witness_omega"),
    ("omega_kn.feasible_partition", "omega_kn", "feasible_partition"),
    ("omega_kn.build_from_partition", "omega_kn", "build_from_partition"),
    ("nkomega.density_witness_nkomega", "nkomega", "density_witness_nkomega"),
    ("nkomega.density_witness_n2", "nkomega", "density_witness_n2"),
    ("nkomega.classify_stabilizing", "nkomega", "classify_stabilizing"),
    ("nkomega.piccard_partner", "nkomega", "piccard_partner"),
    ("nkomega.build_base_word", "nkomega", "build_base_word"),
    ("nkomega.extend_word_domain", "nkomega", "extend_word_domain"),
    ("nkomega.amalgamate", "nkomega", "amalgamate"),
    ("certs.verify", "certs", "verify"),
    ("certs.from_json", "certs", "WitnessCertificate.from_json"),
    ("certs.to_json", "certs", "WitnessCertificate.to_json"),
    ("campaigns.generate", "campaigns", "henson_trial"),
    ("campaigns.generate", "campaigns", "omega_trial"),
    ("campaigns.generate", "campaigns", "nkomega_oracle"),
    ("campaigns.generate", "campaigns", "nkomega_instance"),
    ("campaigns.generate", "campaigns", "nkomega_trial"),
    ("campaigns.generate", "campaigns", "n2_trial"),
    ("campaigns.run_trial", "campaigns", "run_trial"),
)

COUNTS = (
    ("graphs.adjacent", "graphs", "GraphSession.adjacent"),
    ("words.letters", "words", "FreeWord.letters"),
    ("oracles.fresh_support_point", "oracles", "LazyOracle.fresh_support_point"),
) + tuple(
    ("oracles.queries", "oracles", f"{cls}.{meth}")
    for cls in ("FrozenOracle", "LazyOracle", "OmegaShiftOracle", "NKOracle")
    for meth in ("try_image", "try_preimage")
)

# Spans reported by self time alone, and the oracle queries that count as lazy.
SELF_ONLY = ("campaigns.generate", "campaigns.run_trial")
LAZY_QUERIES = ("LazyOracle.try_image", "LazyOracle.try_preimage")

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
COUNT_NAMES = tuple(dict.fromkeys(name for name, _, _ in COUNTS))


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, in order, with its unit."""
    out: dict[str, str] = {}
    for name in SPAN_NAMES:
        if name not in SELF_ONLY:
            out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        if name == "partial_iso.components":
            out["partial_iso.components_per_extend"] = "ratio"
    for name in COUNT_NAMES:
        out[f"{name}.calls"] = "count"
        if name == "oracles.queries":
            out["oracles.lazy_miss_ratio"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    return out


class Tracer:
    """Spans and counters for one run; ``with Tracer() as t:`` installs and restores."""

    def __init__(self):
        self.trial = -1
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counts = {name: [0] for name in COUNT_NAMES}
        self.lazy_queries = [0]
        self.lazy_misses = [0]
        self._lazy_depth = [0]
        # the span log, one entry per span, in start order
        self.log_name = array("i")
        self.log_parent = array("i")
        self.log_trial = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name: str, fn):
        idx = SPAN_NAMES.index(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        names, parents, trials = self.log_name, self.log_parent, self.log_trial
        starts, ends = self.log_start, self.log_end
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            trials.append(tracer.trial)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                calls[idx] += 1
                self_s[idx] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def _count(self, name: str, attr: str, fn):
        cell = self.counts[name]
        if attr not in LAZY_QUERIES:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted
        lazy, depth = self.lazy_queries, self._lazy_depth

        def counted_lazy(*args, **kwargs):
            cell[0] += 1
            lazy[0] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted_lazy

    def _miss_counting(self, fn):
        """alice_witness calls made while a LazyOracle query is running are misses."""
        misses, depth = self.lazy_misses, self._lazy_depth

        def alice_witness(*args, **kwargs):
            if depth[0]:
                misses[0] += 1
            return fn(*args, **kwargs)

        return alice_witness

    def _wrap(self, name: str, attr: str, fn, is_span: bool):
        if not is_span:
            return self._count(name, attr, fn)
        if name == "graphs.alice_witness":
            fn = self._miss_counting(fn)
        return self._span(name, fn)

    # -- install / uninstall --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ultrahom" or key.startswith("ultrahom."))]
        targets = [(t, True) for t in SPANS] + [(t, False) for t in COUNTS]
        for (name, modname, attr), is_span in targets:
            module = sys.modules[f"ultrahom.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, attr, raw.__func__, is_span))
                else:
                    new = self._wrap(name, attr, raw, is_span)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(module, attr)
            new = self._wrap(name, attr, fn, is_span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, key, fn))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric, named as in ``layer_metric_units``."""
        out: dict[str, float] = {}
        calls = dict(zip(SPAN_NAMES, self.calls))
        for name, c, t in zip(SPAN_NAMES, self.calls, self.self_s):
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = t
            if name == "partial_iso.components":
                ext = calls["partial_iso.extend"]
                out["partial_iso.components_per_extend"] = c / ext if ext else 0.0
        for name in COUNT_NAMES:
            out[f"{name}.calls"] = self.counts[name][0]
            if name == "oracles.queries":
                q = self.lazy_queries[0]
                out["oracles.lazy_miss_ratio"] = self.lazy_misses[0] / q if q else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> int:
        """Write the span log as tab-separated lines; returns the span count."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\ttrial\tstart_s\tend_s\n")
            for sid, (idx, parent, trial, t0, t1) in enumerate(zip(
                    self.log_name, self.log_parent, self.log_trial,
                    self.log_start, self.log_end)):
                fh.write(f"{sid}\t{SPAN_NAMES[idx]}\t{parent}\t{trial}\t{t0:.9f}\t{t1:.9f}\n")
        return len(self.log_name)
