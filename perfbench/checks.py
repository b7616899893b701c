"""Output checks applied to every benchmark report.

A report passes when:

- its manifest says ``succeeded``;
- its ``phase3.json`` and Markdown report have the same digests as the
  reference run of the same inputs (one worker, no latency). The digest is
  never pinned to a stored value, so a change that legitimately alters the
  output still compares against its own reference;
- every planted quote labelled ``verbatim`` or ``one_token`` comes out
  found and every ``fabricated`` one does not; the planted refutations
  survive, the all-fabricated ones are downgraded, and the planted
  verbatim / one-token overlap segments are kept;
- no ``can_refute`` entry survives without a doubly verified evidence pair.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterator, Optional

FOUND_EXPECTED = {"verbatim": True, "one_token": True, "fabricated": False}


def digest(path: Optional[Path]) -> Optional[str]:
    if path is None or not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _located_quotes(report: dict[str, Any]) -> Iterator[tuple[str, Optional[dict]]]:
    """Every (quote text, location) pair the report carries."""
    for contribution in report["contribution_analysis"]["contributions"]:
        for entry in contribution["comparisons"]:
            evidence = entry.get("refutation_evidence") or {}
            for pair in evidence.get("evidence_pairs", []):
                yield pair["original_quote"], pair.get("original_location")
                yield pair["candidate_quote"], pair.get("candidate_location")
    for segments in report["textual_similarity"]["segments_by_candidate"].values():
        for seg in segments:
            yield seg["original_text"], seg.get("original_location")
            yield seg["candidate_text"], seg.get("candidate_location")


def _found(location: Optional[dict]) -> bool:
    return bool(location and location.get("found"))


def content_failures(report: dict[str, Any], labels: dict[str, Any]) -> list[str]:
    """Quote labels, planted refutations and the downgrade invariant."""
    failures: list[str] = []
    quote_labels = labels["quotes"]
    for text, location in _located_quotes(report):
        expected = FOUND_EXPECTED.get(quote_labels.get(text, ""))
        if expected is not None and _found(location) != expected:
            failures.append(f"{quote_labels[text]} quote found={_found(location)}: {text[:40]!r}")

    status: dict[tuple[str, str], dict] = {}
    for contribution in report["contribution_analysis"]["contributions"]:
        for entry in contribution["comparisons"]:
            status[(contribution["claim_id"], entry["canonical_id"])] = entry
            if entry["refutation_status"] == "can_refute":
                pairs = (entry.get("refutation_evidence") or {}).get("evidence_pairs", [])
                if not any(
                    _found(p.get("original_location")) and _found(p.get("candidate_location"))
                    for p in pairs
                ):
                    failures.append(f"unverified can_refute survives: {entry['canonical_id']}")
    for claim_id, pid in labels["refuted"]:
        entry = status.get((claim_id, pid))
        if entry is None or entry["refutation_status"] != "can_refute":
            failures.append(f"planted refutation missing: {claim_id} / {pid}")
    for claim_id, pid in labels["downgraded"]:
        entry = status.get((claim_id, pid))
        if entry is None or entry["refutation_status"] != "cannot_refute":
            failures.append(f"fabricated refutation not downgraded: {claim_id} / {pid}")

    kept = report["textual_similarity"]["segments_by_candidate"]
    for pid, originals in labels["segments"].items():
        present = {seg["original_text"] for seg in kept.get(pid, [])}
        for text in originals:
            if text not in present:
                failures.append(f"planted overlap segment dropped for {pid}: {text[:40]!r}")
    return failures


def report_failures(
    out: Path,
    markdown: Optional[Path],
    labels: dict[str, Any],
    reference: dict[str, Optional[str]],
    content_cache: dict[Optional[str], list[str]],
) -> list[str]:
    """Digest and content checks for one successful report directory.

    Content results are cached by ``phase3.json`` digest: identical bytes
    give identical results.
    """
    failures: list[str] = []
    phase3 = digest(out / "phase3.json")
    if phase3 != reference["phase3"]:
        failures.append("phase3.json digest differs from the reference run")
    if digest(markdown) != reference["report"]:
        failures.append("report digest differs from the reference run")
    if phase3 not in content_cache:
        report = json.loads((out / "phase3.json").read_text(encoding="utf-8"))
        content_cache[phase3] = content_failures(report, labels)
    return failures + content_cache[phase3]
