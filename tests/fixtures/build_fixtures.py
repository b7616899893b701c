#!/usr/bin/env python3
"""Regenerate the bundled mock fixtures for the end-to-end golden run.

Run from the repository root:

    python3 tests/fixtures/build_fixtures.py

The fixtures are deterministic; committing their output keeps the golden
pipeline test reproducible without executing this script.
"""

from __future__ import annotations

import json
from hashlib import md5
from pathlib import Path

HERE = Path(__file__).parent

TARGET_TITLE = "Drift-Aware Cache Eviction with Learned Reuse Distance Prediction"
TARGET_URL = "https://arxiv.org/abs/2504.01234"

# A 44-word passage shared verbatim between the target paper and candidate B1.
OVERLAP_PASSAGE = (
    "Modern storage caches face access patterns that shift over time, and static "
    "heuristics that rank items by recency or frequency alone routinely evict "
    "entries that are about to be reused, which inflates miss rates and tail "
    "latency across a wide range of production workloads."
)

CLAIM1_TEXT = (
    "we propose a drift-aware eviction policy that predicts per-item reuse "
    "distance from recent access history"
)
CLAIM2_TEXT = (
    "we release a benchmark suite of drifting cache workloads for evaluating "
    "eviction policies"
)

TARGET_EVIDENCE_QUOTE = (
    "our policy estimates the reuse distance of each cached item from a sliding "
    "window of recent accesses and evicts the item whose predicted next use lies "
    "furthest in the future"
)

B1_EVIDENCE_QUOTE = (
    "we train a lightweight predictor that maps access history features to reuse "
    "distance estimates and evict the block with the largest predicted reuse distance"
)

B1_MARKER = "the foretell cache simulator"

CORE_TASK = (
    "adaptive cache eviction policies for storage workloads under shifting access patterns"
)

TARGET_PAPER = f"""{TARGET_TITLE}

Abstract

Storage caches sit in front of slow devices, and the quality of their eviction
decisions dominates end-to-end latency. We study cache eviction under access
patterns that drift over time and present a policy that predicts per-item reuse
distances from recent access history, together with a benchmark suite of
drifting workloads for evaluating eviction strategies.

1. Introduction

{OVERLAP_PASSAGE}

In this work we study adaptive cache eviction for storage systems whose access
patterns change across diurnal cycles, deployment events, and tenant churn.
First, {CLAIM1_TEXT}, so that eviction decisions track the workload as it
drifts instead of relying on fixed recency or frequency rankings. Second,
{CLAIM2_TEXT}, covering synthetic drift schedules as well as replayed
production traces.

2. Method

The policy maintains a compact sketch of recent accesses per cached item. At
eviction time, {TARGET_EVIDENCE_QUOTE}. The predictor is retrained online from
a reservoir sample of evicted items, which keeps it calibrated as the workload
moves. A guard rail falls back to plain recency ordering whenever the observed
prediction error exceeds a fixed budget for three consecutive windows.

3. Benchmark

The benchmark suite contains twelve drifting workloads with controlled drift
rate, working-set size, and scan pollution. Each workload ships with replay
tooling and a reference miss-rate curve so that eviction policies can be
compared under identical conditions.

Acknowledgements

We thank the storage systems group for trace access and for feedback on early
drafts of the benchmark design.

References

[1] A list of references would appear here in a real paper.
"""

B1_FULL_TEXT = f"""Predictive Eviction for Flash Caches Using Reuse Distance Models

Abstract

Flash caches amplify the cost of poor eviction choices because every miss
triggers a device write. We describe a predictive eviction policy built on
learned reuse distance models and evaluate it with {B1_MARKER}.

1. Approach

{OVERLAP_PASSAGE}

To counter this, {B1_EVIDENCE_QUOTE}. The predictor consumes exponentially
decayed access counters and inter-arrival gaps, and it is refreshed in the
background so that serving threads never block on model updates.

2. Evaluation

Across six trace families replayed in {B1_MARKER}, the policy reduces miss
ratio relative to segmented LRU while staying within the same memory budget.
"""

A1_FULL_TEXT = """Foreseer: Predictive Cache Replacement via Access Pattern Modeling

Abstract

Foreseer models block-level access patterns with a sequence model and uses the
model to rank candidate victims at eviction time.

1. Overview

Foreseer replays production traces to learn recurring access motifs and ranks
eviction candidates by the probability of near-term reuse. The system targets
datacenter block caches and ships with an online calibration loop that tracks
shifts in the trace mixture.
"""


def _norm_title(title: str) -> str:
    return " ".join(title.lower().split())


TARGET_ID = f"title-hash:{md5(_norm_title(TARGET_TITLE).encode()).hexdigest()}"

A1 = {"id": "arxiv:2401.11111", "title": "Foreseer: Predictive Cache Replacement via Access Pattern Modeling"}
A2 = {"id": "arxiv:2402.22222", "title": "Reuse Distance Forecasting for Adaptive Cache Management"}
A3 = {"id": "arxiv:2309.33333", "title": "Reinforcement Learning for Cache Admission and Eviction"}
A4 = {"id": "arxiv:2310.44444", "title": "Deep Policy Gradients for Storage Cache Management"}
A5 = {"id": "arxiv:2311.55555", "title": "Characterizing Workload Drift in Production Key-Value Caches"}
A6 = {"id": "arxiv:2312.66666", "title": "A Longitudinal Study of Access Pattern Shift in CDN Caches"}
B1 = {"id": "arxiv:2403.77777", "title": "Predictive Eviction for Flash Caches Using Reuse Distance Models"}
B2 = {"id": "arxiv:2404.88888", "title": "Frequency-Recency Hybrid Eviction for Content Caches"}
B3 = {"id": "openreview:bench123", "title": "Synthetic Trace Generation for Cache Benchmarking"}

CLAIM1_NAME = "Learned reuse distance eviction policy"
CLAIM2_NAME = "Workload drift benchmark suite"

C1_PRIMARY_RAW = "learned cache eviction policies using reuse distance prediction"
C1_PRIMARY = "Find papers about " + C1_PRIMARY_RAW
C2_PRIMARY = "Find papers about benchmarks for cache workload drift and eviction policy evaluation"

QUERIES = {
    "core_primary": CORE_TASK,
    "core_v1": "learned cache replacement under changing access patterns",
    "core_v2": "adaptive eviction strategies for storage caches with workload drift",
    "c1_primary": C1_PRIMARY,
    "c1_v1": "Find papers about ML based cache replacement with reuse distance estimation",
    "c1_v2": "Find papers about predictive eviction policies for storage caching systems",
    "c2_primary": C2_PRIMARY,
    "c2_v1": "Find papers about datasets for evaluating cache replacement under workload shift",
    "c2_v2": "Find papers about benchmark suites for storage cache eviction strategies",
}

SUPPORT_VERDICT = [
    {"criterion_type": "time", "assessment": "support"},
    {"criterion_type": "topic", "assessment": "support"},
]


def _hit(paper, relevance, *, abstract="", full_text=None, verdict=None, url=None, title=None):
    scheme, _, value = paper["id"].partition(":") if paper else ("", "", "")
    identifiers = {}
    if paper and scheme == "arxiv":
        identifiers["arxiv_id"] = value
        url = url or f"https://arxiv.org/abs/{value}"
    if paper and scheme == "openreview":
        identifiers["openreview_id"] = value
        url = url or f"https://openreview.net/forum?id={value}"
    return {
        "title": title or paper["title"],
        "abstract": abstract,
        "url": url,
        "identifiers": identifiers,
        "relevance_score": relevance,
        "verdict": verdict or SUPPORT_VERDICT,
        **({"full_text": full_text} if full_text else {}),
    }


def build_search_fixture() -> dict:
    a1_abs = "Foreseer models block access patterns with a sequence model to rank eviction candidates."
    a2_abs = "We forecast reuse distances online and adapt cache eviction to pattern changes."
    a3_abs = "A reinforcement learning agent makes admission and eviction decisions for caches."
    a4_abs = "Policy gradients train storage cache controllers end to end."
    a5_abs = "A measurement study of workload drift across production key-value cache clusters."
    a6_abs = "Longitudinal analysis of access pattern shift in CDN cache deployments."
    b1_abs = "Learned reuse distance models drive eviction in flash caches."
    b2_abs = "A hybrid of frequency and recency signals for content cache eviction."
    b3_abs = "A generator for synthetic cache traces with tunable drift for benchmarking."

    partial_hit = _hit(
        {"id": "arxiv:2201.99999", "title": "Cache Coherence Protocols in Multiprocessors"},
        0.75,
        abstract="A survey of coherence protocols.",
        verdict=[{"criterion_type": "topic", "assessment": "somewhat_support"}],
    )
    no_hit = _hit(
        {"id": "arxiv:2202.88888", "title": "Garbage Collection Tuning for Managed Runtimes"},
        0.60,
        abstract="Tuning collectors.",
        verdict=[{"criterion_type": "topic", "assessment": "reject"}],
    )
    late_hit = _hit(
        {"id": "arxiv:2506.77777", "title": "Next Generation Cache Hierarchies"},
        0.90,
        abstract="Published after the target paper.",
    )
    self_hit = _hit(
        {"id": "arxiv:2504.01234", "title": TARGET_TITLE},
        0.98,
        abstract="The target paper itself, surfaced by search.",
    )

    return {
        "queries": {
            QUERIES["core_primary"]: {
                "results": [
                    _hit(A1, 0.99, abstract=a1_abs, full_text=A1_FULL_TEXT),
                    _hit(A2, 0.97, abstract=a2_abs),
                    _hit(A4, 0.94, abstract=a4_abs),
                    late_hit,
                    partial_hit,
                    self_hit,
                ]
            },
            QUERIES["core_v1"]: {
                "results": [
                    _hit(A1, 0.80, abstract=a1_abs),
                    _hit(A3, 0.96, abstract=a3_abs),
                    _hit(A5, 0.92, abstract=a5_abs),
                    no_hit,
                ]
            },
            QUERIES["core_v2"]: {"results": [_hit(A6, 0.91, abstract=a6_abs)]},
            QUERIES["c1_primary"]: {
                "results": [
                    _hit(B1, 0.95, abstract=b1_abs, full_text=B1_FULL_TEXT),
                    _hit(A1, 0.85, abstract=a1_abs),
                ]
            },
            QUERIES["c1_v1"]: {"results": [_hit(B2, 0.90, abstract=b2_abs)]},
            QUERIES["c1_v2"]: {"results": []},
            QUERIES["c2_primary"]: {"results": [_hit(B3, 0.93, abstract=b3_abs)]},
            QUERIES["c2_v1"]: {"results": [_hit(A2, 0.88, abstract=a2_abs)]},
            QUERIES["c2_v2"]: {"results": []},
        },
        "default": [],
    }


def build_llm_fixture() -> dict:
    taxonomy = {
        "name": "Adaptive Cache Eviction Survey Taxonomy",
        "subtopics": [
            {
                "name": "Learned Eviction Policies",
                "scope_note": "Policies that use learned models to choose eviction victims.",
                "exclude_note": "Measurement-only studies belong under workload characterization.",
                "subtopics": [
                    {
                        "name": "Reuse Distance Prediction Methods",
                        "scope_note": "Eviction driven by explicit reuse distance prediction.",
                        "exclude_note": "Policies trained by trial and error belong under RL eviction.",
                        "papers": [TARGET_ID, A1["id"], A2["id"]],
                    },
                    {
                        "name": "Reinforcement Learning Based Eviction",
                        "scope_note": "Eviction or admission policies trained with reinforcement learning.",
                        "exclude_note": "Supervised reuse prediction belongs under reuse distance methods.",
                        "papers": [A3["id"], A4["id"]],
                    },
                ],
            },
            {
                "name": "Workload Characterization and Benchmarks",
                "scope_note": "Studies measuring cache workloads or building evaluation suites.",
                "exclude_note": "Papers proposing eviction policies belong under learned eviction policies.",
                "subtopics": [
                    {
                        "name": "Cache Workload Drift Studies",
                        "scope_note": "Empirical analyses of access pattern drift in deployed caches.",
                        "exclude_note": "Policy proposals belong under learned eviction policies.",
                        "papers": [A5["id"], A6["id"]],
                    }
                ],
            },
        ],
    }

    def comparison(status1, status2, *, note1=None, note2=None, evidence1=None, evidence2=None):
        def entry(name, status, note, evidence):
            out = {"aspect": "contribution", "contribution_name": name, "refutation_status": status}
            if evidence is not None:
                out["refutation_evidence"] = evidence
            if note is not None:
                out["brief_note"] = note
            return out

        return {
            "contribution_analyses": [
                entry(CLAIM1_NAME, status1, note1, evidence1),
                entry(CLAIM2_NAME, status2, note2, evidence2),
            ]
        }

    b1_evidence = {
        "summary": (
            "Predictive Eviction [7] already evicts the block with the largest "
            "predicted reuse distance learned from access history, which is the "
            "mechanism the first contribution claims as new. Both papers build a "
            "per-item predictor over recent accesses and use its output as the "
            "eviction rank."
        ),
        "evidence_pairs": [
            {
                "original_quote": TARGET_EVIDENCE_QUOTE,
                "original_paragraph_label": "Method",
                "candidate_quote": B1_EVIDENCE_QUOTE,
                "candidate_paragraph_label": "Approach",
                "rationale": "Both passages describe eviction by furthest predicted reuse distance.",
            }
        ],
    }
    b3_fabricated_evidence = {
        "summary": "The candidate appears to describe the same benchmark suite.",
        "evidence_pairs": [
            {
                "original_quote": CLAIM2_TEXT,
                "original_paragraph_label": "Introduction",
                "candidate_quote": (
                    "we publish a complete suite of drifting cache workloads with "
                    "reference miss rate curves for every policy family"
                ),
                "candidate_paragraph_label": "Abstract",
                "rationale": "Claimed overlap in benchmark scope.",
            }
        ],
    }

    similarity_segments = {
        "plagiarism_segments": [
            {
                "segment_id": 1,
                "location": "Introduction",
                "original_text": OVERLAP_PASSAGE,
                "candidate_text": OVERLAP_PASSAGE,
                "plagiarism_type": "Direct",
                "rationale": "A 44-word passage appears verbatim in both introductions.",
            }
        ]
    }

    narrative = (
        f"Core task: {CORE_TASK}. The retrieved work splits into a dense branch of "
        "learned eviction policies and a smaller measurement-oriented branch. Within "
        "the learned branch, reuse distance prediction methods such as Foreseer[1] "
        "and Reuse Distance Forecasting[2] rank victims with explicit predictors, "
        "while a reinforcement learning cluster around Reinforcement Learning[3] and "
        "Deep Policy[4] trains eviction behavior end to end. The measurement branch, "
        "represented by Characterizing Workload[5] and A Longitudinal[6], documents "
        "how production access patterns drift.\n\n"
        "The most active contrast is between explicit prediction and trial-and-error "
        "training: predictor-based policies expose their ranking signal, whereas the "
        "RL line trades interpretability for flexibility. Drift-Aware Cache Eviction[0] "
        "sits squarely in the reuse distance prediction cluster, sharing its leaf with "
        "Foreseer[1] and Reuse Distance Forecasting[2]; its emphasis on retraining "
        "under drift connects the policy work to the questions raised by the "
        "measurement branch."
    )

    assessment = [
        (
            "The paper contributes a drift-aware eviction policy plus a benchmark "
            "suite, and the taxonomy places it in the reuse distance prediction "
            "leaf beside two close neighbors. That leaf is the densest spot in a "
            "crowded learned-eviction branch, which suggests an incremental rather "
            "than green-field position."
        ),
        (
            "Neighboring directions include reinforcement learning eviction, which "
            "the scope notes separate by training style, and a measurement branch "
            "on workload drift. The paper borrows its motivation from the drift "
            "studies while competing methodologically with the prediction leaf, "
            "notably Foreseer[1]."
        ),
        (
            "Among the candidates examined per contribution, the eviction policy "
            "claim drew one refutation supported by verified quotes from Predictive "
            "Eviction[7], while the benchmark claim drew no verified refutation. "
            "The search scope was the top semantic matches only, so absence of "
            "refutation is weak evidence of novelty."
        ),
    ]

    one_liners = {
        "items": [
            {"paper_id": A1["id"], "brief_one_liner": "Sequence models over block accesses rank eviction victims for datacenter caches with an online calibration loop tracking trace mixture shifts."},
            {"paper_id": A2["id"], "brief_one_liner": "Online reuse distance forecasting adapts cache eviction decisions as access patterns change, without fixed recency or frequency rankings."},
            {"paper_id": A3["id"], "brief_one_liner": "A reinforcement learning agent jointly handles cache admission and eviction, learning decision policies from workload interaction rather than fixed heuristics."},
            {"paper_id": A4["id"], "brief_one_liner": "End-to-end policy gradient training produces storage cache controllers that outperform handcrafted eviction heuristics on replayed production traces."},
            {"paper_id": A5["id"], "brief_one_liner": "A measurement study quantifying how access patterns drift across production key-value cache clusters over days and weeks."},
            {"paper_id": A6["id"], "brief_one_liner": "Longitudinal evidence that CDN cache access patterns shift substantially, motivating eviction policies that adapt over time."},
        ]
    }

    rules = [
        {"system_contains": "extract ONE short phrase", "response": CORE_TASK},
        {
            "system_contains": "extract the main contributions",
            "response": {
                "contributions": [
                    {
                        "name": CLAIM1_NAME,
                        "author_claim_text": CLAIM1_TEXT,
                        "description": (
                            "A cache eviction policy that learns to predict per-item "
                            "reuse distances from recent access history and evicts the "
                            "item with the furthest predicted reuse."
                        ),
                        "source_hint": "Introduction",
                    },
                    {
                        "name": CLAIM2_NAME,
                        "author_claim_text": CLAIM2_TEXT,
                        "description": (
                            "A benchmark collection of synthetic and replayed cache "
                            "traces with controlled access pattern drift for comparing "
                            "eviction strategies."
                        ),
                        "source_hint": "Introduction",
                    },
                ]
            },
        },
        {
            "system_contains": "prior-work search queries",
            "response": {
                "queries": [
                    {"id": "contribution_1", "prior_work_query": C1_PRIMARY_RAW},
                    {"id": "contribution_2", "prior_work_query": C2_PRIMARY},
                ]
            },
        },
        {
            "system_contains": "rewriting academic search queries",
            "user_contains": "adaptive cache eviction policies for storage workloads",
            "response": {
                "variants": [
                    "Find papers about " + QUERIES["core_v1"],
                    "Find papers about " + QUERIES["core_v2"],
                ]
            },
        },
        {
            "system_contains": "rewriting academic search queries",
            "user_contains": "learned cache eviction policies using reuse distance",
            "response": {"variants": [QUERIES["c1_v1"], QUERIES["c1_v2"]]},
        },
        {
            "system_contains": "rewriting academic search queries",
            "user_contains": "benchmarks for cache workload drift",
            "response": {"variants": [QUERIES["c2_v1"], QUERIES["c2_v2"]]},
        },
        {"system_contains": "rigorous academic taxonomies", "response": taxonomy},
        {
            "system_contains": "comparative reviewer",
            "user_contains": B1["title"],
            "response": comparison(
                "can_refute",
                "cannot_refute",
                evidence1=b1_evidence,
                note2="Predictive Eviction evaluates on static traces and ships no drift benchmark.",
            ),
        },
        {
            "system_contains": "comparative reviewer",
            "user_contains": B2["title"],
            "response": comparison(
                "cannot_refute",
                "cannot_refute",
                note1="A handcrafted frequency-recency hybrid with no learned predictor.",
                note2="No benchmark or dataset contribution is claimed.",
            ),
        },
        {
            "system_contains": "comparative reviewer",
            "user_contains": A1["title"],
            "response": comparison(
                "cannot_refute",
                "unclear",
                note1="Foreseer ranks victims by reuse probability, not predicted reuse distance.",
                note2="The abstract does not say whether a benchmark is released.",
            ),
        },
        {
            "system_contains": "comparative reviewer",
            "user_contains": B3["title"],
            "response": comparison(
                "cannot_refute",
                "can_refute",
                note1="A trace generator, not an eviction policy.",
                evidence2=b3_fabricated_evidence,
            ),
        },
        {
            "system_contains": "comparative reviewer",
            "user_contains": A2["title"],
            "response": comparison(
                "cannot_refute",
                "cannot_refute",
                note1="Forecasts reuse distance but does not define an eviction benchmark.",
                note2="No benchmark suite accompanies the forecasting method.",
            ),
        },
        {
            "system_contains": "SAME taxonomy category",
            "user_contains": A1["title"],
            "response": {
                "is_duplicate_variant": False,
                "brief_comparison": (
                    "Both papers sit in the reuse distance prediction leaf of the "
                    "learned eviction branch. They overlap in ranking victims with a "
                    "learned model over access history, but the original paper predicts "
                    "explicit reuse distances under drift while Foreseer[1] ranks by "
                    "near-term reuse probability on stationary traces."
                ),
            },
        },
        {
            "system_contains": "SAME taxonomy category",
            "user_contains": A2["title"],
            "response": {
                "is_duplicate_variant": True,
                "brief_comparison": (
                    "This paper is highly similar to the original paper; it may be a "
                    "variant or near-duplicate. Please manually verify."
                ),
            },
        },
        {
            "system_contains": "plagiarism detection system",
            "user_contains": B1_MARKER,
            "response": similarity_segments,
        },
        {
            "system_contains": "plagiarism detection system",
            "response": {"plagiarism_segments": []},
        },
        {"system_contains": "one-liner summary", "response": one_liners},
        {"system_contains": "survey-style narrative", "response": {"narrative": narrative}},
        {"system_contains": "Originality / Novelty", "response": {"paragraphs": assessment}},
    ]
    return {"rules": rules}


def build_files() -> dict[str, str]:
    """The text of each fixture file, by file name."""
    def as_json(value: dict) -> str:
        return json.dumps(value, indent=2, ensure_ascii=False) + "\n"

    return {
        "target_paper.txt": TARGET_PAPER,
        "mock_search.json": as_json(build_search_fixture()),
        "mock_llm.json": as_json(build_llm_fixture()),
    }


def main() -> None:
    for name, text in build_files().items():
        (HERE / name).write_text(text, encoding="utf-8")
    print(f"target id: {TARGET_ID}")
    print("wrote target_paper.txt, mock_search.json, mock_llm.json")


if __name__ == "__main__":
    main()
