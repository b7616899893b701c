#!/usr/bin/env python3
"""Paper-scale offline benchmark of noveltycheck.

Run from the repository root::

    python3 perfbench/run.py --workload fulltext_verify --seed 1 --seconds 30 --trace 0

One invocation generates seeded inputs (``workload.py``, in a child
process), times the set-up in fresh child processes, makes a reference
report in a child process (same inputs, one worker, no latency), then
calls ``noveltycheck.pipeline.run_pipeline`` in-process, one report after
another (a closed loop with one client), for ``--seconds`` seconds after
one untimed warm-up report. Every report is checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time on untraced reports and half on traced ones (``spans.py``) and prints
the per-layer metrics, including the tracing overhead; spans are written
to ``.perfbench-out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its unit and sample count. The benchmark exits
with status 2 and prints no result when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("fulltext_verify", "abstract_wait", "resume_render")
SETUP_PROBES = 9
MIN_REPORTS = 3
# A timing sample is a batch of back-to-back reports lasting at least this
# long (one report, where a report takes longer). On a shared host a short
# report runs either at full speed or slowed by a neighbour; the median of
# single short reports jumps between the two speeds as the slowed share of
# the run crosses one half, while a batch mean moves with that share.
BATCH_S = 2.0
CHILD_TIMEOUT_S = 120


def _child(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} failed:\n{done.stderr[-2000:]}")
    return done.stdout


def setup_probe(inputs: Path) -> None:
    """Child: time importing the program and building its clients from fixtures."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import noveltycheck.pipeline  # noqa: F401  (the whole package graph)
    from noveltycheck.clients import MockLlmClient, MockSearchClient

    with open(inputs / "llm.json", encoding="utf-8") as fh:
        MockLlmClient(json.load(fh))
    with open(inputs / "search.json", encoding="utf-8") as fh:
        MockSearchClient(json.load(fh))
    print(time.perf_counter() - start)


def reference(work: Path) -> None:
    """Child: one report with the program's own clients, one worker, no latency."""
    sys.path.insert(0, str(SRC))
    import checks
    import harness
    from noveltycheck.pipeline import run_pipeline

    inputs, out = work / "inputs", work / "reference"
    settings = json.loads((inputs / "settings.json").read_text(encoding="utf-8"))
    cfg = harness.make_config(inputs, out, settings, reference=True)
    manifest = run_pipeline((inputs / "paper.txt").read_text(encoding="utf-8"), cfg)
    print(json.dumps({
        "succeeded": manifest.succeeded,
        "phase3": checks.digest(out / "phase3.json"),
        "report": checks.digest(harness.report_markdown(out)),
    }))


def _batches(rows: list, min_s: float = BATCH_S) -> list[tuple[float, float]]:
    """Per-report (wall, cpu) means of runs of consecutive reports lasting >= min_s.

    A short remainder at the end joins the last batch.
    """
    out: list[list[float]] = []  # [wall sum, cpu sum, reports]
    open_batch = [0.0, 0.0, 0]
    for report, _, _ in rows:
        open_batch[0] += report.wall_s
        open_batch[1] += report.cpu_s
        open_batch[2] += 1
        if open_batch[0] >= min_s:
            out.append(open_batch)
            open_batch = [0.0, 0.0, 0]
    if open_batch[2]:
        if out:
            out[-1] = [a + b for a, b in zip(out[-1], open_batch)]
        else:
            out.append(open_batch)
    return [(wall / n, cpu / n) for wall, cpu, n in out]


def _summary(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, sample count."""
    line = f"{name:<20} {statistics.median(values):12.6g} {unit:<7} median of {len(values)}"
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return line + f", p{pct} {cut:.6g}"
    return line


class Run:
    """One benchmark invocation over one workload and seed."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args, self.work = args, work
        self.inputs = work / "inputs"
        self.content_cache: dict = {}
        self.lines: list[str] = []
        self.problems: list[str] = []  # run-level: reference and fidelity
        self.reports_run = 0

    def prepare(self) -> None:
        a = self.args
        _child(str(HERE / "workload.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--out", str(self.inputs))
        self.setup_s = [
            float(_child(str(HERE / "run.py"), "--setup-probe", str(self.inputs)).split()[-1])
            for _ in range(SETUP_PROBES)
        ]
        self.reference = json.loads(_child(str(HERE / "run.py"), "--reference", str(self.work))
                                    .splitlines()[-1])

        sys.path.insert(0, str(SRC))
        import checks
        import harness

        self.checks, self.harness = checks, harness
        self.settings = json.loads((self.inputs / "settings.json").read_text(encoding="utf-8"))
        self.labels = json.loads((self.inputs / "labels.json").read_text(encoding="utf-8"))
        self.paper = (self.inputs / "paper.txt").read_text(encoding="utf-8")
        self.factory = harness.ClientFactory()
        self.factory.preload(self.inputs / "llm.json", self.inputs / "search.json")
        self.factory.llm_latency = self.settings["llm_latency"]
        self.factory.search_latency = self.settings["search_latency"]
        self.factory.install()
        self.resumed = ("phase1.json", "phase2.json", "phase3.json") if self.settings["resume"] else ()

    def fidelity(self) -> list[str]:
        return self.harness.fidelity_failures(ROOT, self.work, self.factory)

    def _out_dir(self, n: int) -> Path:
        if self.resumed:
            out = self.work / "reports" / "resume"
            if not out.exists():
                out.mkdir(parents=True)
                for name in self.resumed:
                    shutil.copyfile(self.work / "reference" / name, out / name)
            for stale in [out / "manifest.json", self.harness.report_markdown(out)]:
                if stale is not None and stale.exists():
                    stale.unlink()
            return out
        shutil.rmtree(self.work / "reports", ignore_errors=True)
        out = self.work / "reports" / f"r{n}"
        out.mkdir(parents=True)
        return out

    def one_report(self, n: int, tracer=None):
        out = self._out_dir(n)
        cfg = self.harness.make_config(self.inputs, out, self.settings)
        gc.collect()
        if tracer is not None:
            tracer.begin_report(n)
        report = self.harness.run_report(self.paper, cfg, self.factory)
        if report.error:
            failures = [report.error]
        elif not report.manifest.succeeded:
            failures = [f"manifest does not report success: {report.manifest.failure_log}"]
        else:
            failures = self.checks.report_failures(
                out, self.harness.report_markdown(out), self.labels, self.reference,
                self.content_cache,
            )
        written = sum(p.stat().st_size for p in out.iterdir() if p.name not in self.resumed)
        return report, failures, written

    def loop(self, seconds: float, tracer=None) -> list:
        rows = []
        deadline = time.perf_counter() + seconds
        while len(rows) < MIN_REPORTS or time.perf_counter() < deadline:
            self.reports_run += 1
            rows.append(self.one_report(self.reports_run, tracer))
        return rows

    def failures(self, rows: list) -> int:
        failed = 0
        for _, problems, _ in rows:
            if problems:
                failed += 1
                self.lines.append("FAILED: " + "; ".join(problems[:5]))
        return failed

    def end_to_end(self) -> dict:
        rows = self.loop(self.args.seconds)
        failed = self.failures(rows)
        attempted = len(rows)
        batches = _batches(rows)
        series = {
            "report_s": ([wall for wall, _ in batches], "s"),
            "cpu_s": ([cpu for _, cpu in batches], "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"),
            "ok_ratio": ([(attempted - failed) / attempted], "ratio"),
            "llm_calls": ([r.llm.calls for r, _, _ in rows], "count"),
            "llm_prompt_kchars": ([r.llm.prompt_chars / 1e3 for r, _, _ in rows], "kchars"),
            "artifact_mb": ([w / 1e6 for _, _, w in rows], "MB"),
        }
        metrics = {}
        for name, (values, unit) in series.items():
            self.lines.append(_summary(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        self.lines.append(f"report_s and cpu_s: medians of {len(batches)} batches "
                          f"(>= {BATCH_S:g} s) of {attempted} reports; single reports:")
        self.lines.append(_summary("  report_s", [r.wall_s for r, _, _ in rows], "s"))
        self.lines.append(_summary("  cpu_s", [r.cpu_s for r, _, _ in rows], "s"))
        self.lines.append(f"{'failed_ratio':<20} {failed / attempted:12.6g} ratio   "
                          f"({failed} of {attempted} reports)")
        self.lines.append(f"{'search_calls':<20} "
                          f"{statistics.median(r.search.calls for r, _, _ in rows):12.6g} count")
        return {"attempted": attempted, "failed": failed, "metrics": metrics}

    def per_layer(self) -> dict:
        import spans as tracing

        plain = self.loop(self.args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        self.factory.tracer = tracer
        self.problems += self.fidelity()
        traced = self.loop(self.args.seconds / 2, tracer)
        failed = self.failures(plain + traced)
        first = self.reports_run - len(traced) + 1
        per_report = [
            tracing.report_metrics(tracer, n, r.wall_s, r.llm, r.search)
            for n, (r, _, _) in enumerate(traced, start=first)
        ]
        metrics = tracing.per_layer(per_report)
        plain_s = statistics.median(r.wall_s for r, _, _ in plain)
        traced_s = statistics.median(r.wall_s for r, _, _ in traced)
        metrics["trace.report_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
        tracer.write(OUT / f"trace-{self.args.workload}.jsonl")
        for name, m in metrics.items():
            self.lines.append(f"{name:<48} {m['value']:12.6g} {m['unit']}")
        self.lines.append(f"traced reports: {len(traced)}, untraced: {len(plain)}")
        return {"attempted": len(plain) + len(traced), "failed": failed, "metrics": metrics}

    def measure(self) -> dict:
        self.prepare()
        if not self.reference["succeeded"]:
            self.problems.append("the reference report did not succeed")
        self.problems += self.fidelity()  # client injection only
        gc.collect()
        gc.freeze()  # the fixture dicts are the benchmark's, not the program's
        self.one_report(0)  # warm-up, untimed
        result = self.per_layer() if self.args.trace else self.end_to_end()
        for problem in self.problems:
            self.lines.append("FAILED: " + problem)
        result["correct"] = result["failed"] == 0 and not self.problems
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Paper-scale offline noveltycheck benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--reference", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "noveltycheck" / "__init__.py").is_file():
        print(f"noveltycheck sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.reference:
        reference(args.reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(args, work)
    try:
        result = run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in run.lines:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
