"""Span tracing of noveltycheck from outside the program.

``install`` wraps each traced public function at its defining module and
at every module that imported it by name (found by identity), so calls
such as ``analysis`` -> ``verify_quote`` or ``pipeline`` ->
``run_analysis_phase`` are seen. Phase boundaries come from the pipeline's
phase runner, artifact encode / decode from the ``to_dict`` / ``from_dict``
of the phase results.

A span records its name, start, end, parent span and report id. A span
opened on a worker thread with no open span of its own takes the
innermost open span of the report's thread as its parent, which lies
inside the enclosing phase. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

# module -> the public functions of it that the per-layer metrics are built on
TRACED = {
    "verification": ("verify_quote", "tokenize", "align_anchor", "verify_segment"),
    "papers": ("preprocess_document",),
    "retrieval": ("run_retrieval_phase", "execute_queries", "filter_scope", "cross_scope_dedup"),
    "extraction": ("run_extraction_phase", "parse_structured_output"),
    "taxonomy": ("repair_taxonomy", "validate_taxonomy"),
    "analysis": (
        "run_analysis_phase", "build_taxonomy", "compare_core_task", "compare_contribution",
        "detect_similarity", "generate_one_liners", "generate_narrative",
        "generate_overall_assessment", "assemble_report", "downgrade_unverified",
    ),
    "render": ("render_markdown",),
    "pipeline": ("run_pipeline",),
}
PHASE_RESULTS = (
    ("extraction", "Phase1Result"),
    ("retrieval", "Phase2Result"),
    ("analysis", "NoveltyReport"),
)


class Tracer:
    """In-memory spans plus per-report counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, Optional[int], Any]] = []
        self.counters: dict[Any, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.distinct: dict[Any, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self.report: Any = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list[int] = []
        self._lock = threading.Lock()

    def begin_report(self, report_id: Any) -> None:
        """Called on the report's thread before ``run_pipeline``."""
        self.report = report_id
        self._root = []
        self._local.stack = self._root

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._root[-1] if self._root else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.report))

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[self.report][key] += value

    def see(self, key: str, item: Any) -> None:
        with self._lock:
            self.distinct[self.report][key].add(item)

    def wrap(self, name: Callable[..., str] | str, fn: Callable, observe=None) -> Callable:
        span_name = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name(*args, **kwargs)):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, report in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "report": report,
                }) + "\n")


# --- observers: counts taken where the work happens ----------------------------


def _tokenize(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("verification.tokenize.tokens", len(result))
    tracer.see("verification.tokenize", hash(args[0]))


def _verify_quote(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("verification.verify_quote.found", result.found)


def _preprocess(tracer: Tracer, args, kwargs, result) -> None:
    tracer.see("papers.preprocess_document", hash(args[0]))


def _parse(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("extraction.parse_structured_output.fallbacks", result.fallback is not None)


def _execute(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("retrieval.retries", sum(a - 1 for a in result.attempts_by_query.values()))


def _retrieval(tracer: Tracer, args, kwargs, result) -> None:
    raw = result.core_stats.raw + sum(s.raw for s in result.contribution_stats.values())
    tracer.count("retrieval.raw", raw)
    tracer.count("retrieval.unified", len(result.candidate_set.unified))


def _downgrade(tracer: Tracer, args, kwargs, result) -> None:
    before = [e.refutation_status for e in args[0]]
    after = [e.refutation_status for e in result]
    tracer.count("analysis.downgraded", sum(b != a for b, a in zip(before, after)))


OBSERVERS = {
    "verification.tokenize": _tokenize,
    "verification.verify_quote": _verify_quote,
    "papers.preprocess_document": _preprocess,
    "extraction.parse_structured_output": _parse,
    "retrieval.execute_queries": _execute,
    "retrieval.run_retrieval_phase": _retrieval,
    "analysis.downgrade_unverified": _downgrade,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function at all its import sites, plus phases and codecs."""
    package = [
        m for name, m in list(sys.modules.items())
        if name == "noveltycheck" or name.startswith("noveltycheck.")
    ]
    for layer, names in TRACED.items():
        module = importlib.import_module(f"noveltycheck.{layer}")
        for fname in names:
            original = getattr(module, fname)
            qualified = f"{layer}.{fname}"
            wrapped = tracer.wrap(qualified, original, OBSERVERS.get(qualified))
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    pipeline = importlib.import_module("noveltycheck.pipeline")
    runner = pipeline._PhaseRunner
    runner.run = tracer.wrap(lambda self, name, *a, **k: f"pipeline.{name}", runner.run)

    for layer, cls_name in PHASE_RESULTS:
        cls = getattr(importlib.import_module(f"noveltycheck.{layer}"), cls_name)
        cls.to_dict = tracer.wrap("pipeline.encode", cls.to_dict)
        decode = cls.__dict__["from_dict"].__func__
        cls.from_dict = classmethod(tracer.wrap("pipeline.decode", decode))


# --- per-layer metrics ------------------------------------------------------------

PER_LAYER_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "wait_s": "s", "mtokens": "Mtokens",
    "retries": "count", "errors": "count", "fallbacks": "count", "downgraded": "count",
}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("ratio") or last.endswith("_mean"):
        return "ratio"
    return PER_LAYER_UNITS[last]


def report_metrics(tracer: Tracer, report_id: Any, wall_s: float, llm, search) -> dict[str, float]:
    """One report's per-layer metrics from its spans, counters and client stats."""
    spans = [s for s in tracer.spans if s[5] == report_id]
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for _, name, start, end, _, _ in spans:
        calls[name] += 1
        busy[name] += end - start
    counters = tracer.counters[report_id]
    distinct = tracer.distinct[report_id]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for fname in ("verify_quote", "tokenize", "align_anchor"):
        key = f"verification.{fname}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.s"] = busy[key]
    m["verification.verify_quote.found_ratio"] = ratio(
        counters["verification.verify_quote.found"], calls["verification.verify_quote"]
    )
    m["verification.tokenize.mtokens"] = counters["verification.tokenize.tokens"] / 1e6
    m["verification.tokenize.useful_ratio"] = ratio(
        len(distinct["verification.tokenize"]), calls["verification.tokenize"]
    )
    m["verification.verify_segment.calls"] = calls["verification.verify_segment"]

    m["papers.preprocess_document.calls"] = calls["papers.preprocess_document"]
    m["papers.preprocess_document.s"] = busy["papers.preprocess_document"]
    m["papers.preprocess_document.useful_ratio"] = ratio(
        len(distinct["papers.preprocess_document"]), calls["papers.preprocess_document"]
    )

    for fname in ("run_retrieval_phase", "execute_queries", "filter_scope", "cross_scope_dedup"):
        m[f"retrieval.{fname}.s"] = busy[f"retrieval.{fname}"]
    m["retrieval.kept_ratio"] = ratio(counters["retrieval.unified"], counters["retrieval.raw"])
    m["retrieval.retries"] = counters["retrieval.retries"]

    m["clients.llm.calls"] = llm.calls
    m["clients.llm.wait_s"] = llm.wait_s
    m["clients.llm.inflight_mean"] = ratio(llm.wait_s, wall_s)
    m["clients.search.calls"] = search.calls
    m["clients.search.wait_s"] = search.wait_s
    m["clients.search.errors"] = search.errors

    m["extraction.run_extraction_phase.s"] = busy["extraction.run_extraction_phase"]
    m["extraction.parse_structured_output.calls"] = calls["extraction.parse_structured_output"]
    m["extraction.parse_structured_output.s"] = busy["extraction.parse_structured_output"]
    m["extraction.parse_structured_output.fallbacks"] = counters[
        "extraction.parse_structured_output.fallbacks"
    ]

    m["taxonomy.repair_taxonomy.s"] = busy["taxonomy.repair_taxonomy"]
    m["taxonomy.validate_taxonomy.calls"] = calls["taxonomy.validate_taxonomy"]

    for fname in ("run_analysis_phase", "build_taxonomy", "compare_core_task",
                  "compare_contribution", "detect_similarity", "generate_one_liners",
                  "generate_narrative", "generate_overall_assessment", "assemble_report"):
        m[f"analysis.{fname}.s"] = busy[f"analysis.{fname}"]
    m["analysis.compare_contribution.calls"] = calls["analysis.compare_contribution"]
    m["analysis.detect_similarity.calls"] = calls["analysis.detect_similarity"]
    m["analysis.downgraded"] = counters["analysis.downgraded"]

    m["render.render_markdown.s"] = busy["render.render_markdown"]

    phases = 0.0
    for n in range(1, 5):
        m[f"pipeline.phase{n}.s"] = busy[f"pipeline.phase{n}"]
        phases += busy[f"pipeline.phase{n}"]
    m["pipeline.encode.s"] = busy["pipeline.encode"]
    m["pipeline.decode.s"] = busy["pipeline.decode"]
    # run_pipeline outside its phases: client and target set-up, output dir
    m["pipeline.self_s"] = busy["pipeline.run_pipeline"] - phases
    return m


def per_layer(per_report: list[dict[str, float]]) -> dict[str, dict[str, Any]]:
    """Median over the run's traced reports, with units."""
    names = per_report[0].keys()
    return {
        name: {"value": statistics.median(r[name] for r in per_report), "unit": _unit(name)}
        for name in names
    }
