#!/usr/bin/env python3
"""Seeded, download-free generator of paper-scale noveltycheck inputs.

One generator serves every workload. It writes into an output directory:

- ``paper.txt``: a target paper of about 10k tokens with abstract,
  numbered sections, acknowledgements and references;
- ``llm.json`` / ``search.json``: fixtures for the program's own
  ``MockLlmClient`` / ``MockSearchClient``. Every model response is chosen
  by substrings of the request alone (no per-call sequences), so each
  response is a pure function of the request and reports repeat
  byte-for-byte;
- ``labels.json``: the ground-truth label of every planted quote
  (``verbatim``, ``one_token``, ``paraphrase`` or ``fabricated``) plus the
  refutations, downgrades and overlap segments the report must contain;
- ``settings.json``: the run settings of the workload.

Text is sampled from a Zipf-like synthetic vocabulary. Planted passages
alternate ordinary words with document-unique technical terms, so every
anchor of a planted quote has exactly one true location in its document;
a one-token change swaps an ordinary word for a word that occurs in no
document. Fabricated quotes mix absent words with one common word in
three, which keeps every anchor below the 0.6 hit threshold.

Usage::

    python3 perfbench/workload.py --workload fulltext_verify --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
from pathlib import Path

TARGET_TOKENS = 10_000
CANDIDATE_TOKENS = 5_000
N_CORE = 50
N_CLAIMS = 3
OWN_PER_CLAIM = 10  # per-contribution papers; the top 6 survive Top-K
OWN_SELECTED = 6
N_SIBLINGS = 4
N_TARGET_EVIDENCE = 12
N_TARGET_OVERLAP = 12
PASSAGE_WORDS = 36
TARGET_DATE = "2025-06-15"
TIMESTAMP = "2026-01-15T00:00:00+00:00"

WORKLOADS = {
    # CPU-bound: full texts, every quote label, no injected latency, one worker
    "fulltext_verify": dict(
        full_text=True, quote_mix="all", llm_latency=0.0, search_latency=0.0,
        concurrency=1, failing_queries=0, resume=False,
    ),
    # wait-bound: abstracts only, verbatim quotes, latency and retries
    "abstract_wait": dict(
        full_text=False, quote_mix="verbatim", llm_latency=0.05, search_latency=0.02,
        concurrency=2, failing_queries=3, resume=False,
    ),
    # read side: resume over artifacts written from the fulltext_verify inputs
    "resume_render": dict(
        full_text=True, quote_mix="all", llm_latency=0.0, search_latency=0.0,
        concurrency=1, failing_queries=0, resume=True,
    ),
}
RETRY_INITIAL_DELAY = 0.05

_CONSONANTS = "bcdfghklmnprst"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
# terms start with a syllable no vocabulary word contains, fabricated
# words with one no term contains, so the three word sets are disjoint
_TERM_HEADS = [c + v for c in "vwzj" for v in _VOWELS]
_FAKE_HEADS = [c + v for c in "xq" for v in _VOWELS]

SUPPORT = [
    {"criterion_type": "time", "assessment": "support"},
    {"criterion_type": "topic", "assessment": "support"},
]
PARTIAL = [{"criterion_type": "topic", "assessment": "somewhat_support"}]
REJECT = [{"criterion_type": "topic", "assessment": "reject"}]


class Lexicon:
    """Zipf-like word sampler plus mints for unique terms and absent words."""

    def __init__(self, rng: random.Random, size: int = 4900, shift: float = 2.7) -> None:
        self.rng = rng
        # short words take the frequent ranks, as function words do; the
        # mean token is then about 4.5 characters, as in English prose
        tiers = ((70, 1, 0.5), (1400, 2, 1.0), (size, 3, 0.4))
        self.words: list[str] = []
        seen: set[str] = set()
        for limit, syllables, coda in tiers:
            while len(self.words) < limit:
                word = "".join(rng.choice(_SYLLABLES) for _ in range(syllables))
                if rng.random() < coda:
                    word += rng.choice(_CONSONANTS)
                if word not in seen:
                    seen.add(word)
                    self.words.append(word)
        # Zipf-Mandelbrot weights 1/(rank + shift), whose fit to English puts
        # the top word near 4%; accumulated once, as choices(weights=...)
        # would redo that on every call
        self.cum_weights = list(
            itertools.accumulate(1.0 / (rank + shift) for rank in range(1, size + 1))
        )
        self.common = self.words[:40]
        self._terms = itertools.count()
        self._fakes = itertools.count()

    def sample(self, n: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum_weights, k=n)

    def term(self) -> str:
        n = next(self._terms)
        a, n = n % len(_SYLLABLES), n // len(_SYLLABLES)
        b, n = n % len(_SYLLABLES), n // len(_SYLLABLES)
        return _TERM_HEADS[n % len(_TERM_HEADS)] + _SYLLABLES[a] + _SYLLABLES[b]

    def fake(self) -> str:
        n = next(self._fakes)
        a, n = n % len(_SYLLABLES), n // len(_SYLLABLES)
        b, n = n % len(_SYLLABLES), n // len(_SYLLABLES)
        return _FAKE_HEADS[n % len(_FAKE_HEADS)] + _SYLLABLES[a] + _SYLLABLES[b]


def _sentence(words: list[str]) -> str:
    return words[0].capitalize() + " " + " ".join(words[1:])


class Writer:
    """Builds documents, passages and quote variants from one Lexicon."""

    def __init__(self, lex: Lexicon) -> None:
        self.lex = lex
        self.rng = lex.rng
        self.labels: dict[str, str] = {}

    def paragraph(self, n_words: int) -> str:
        words = self.lex.sample(n_words)
        out, i = [], 0
        while i < len(words):
            size = self.rng.randint(10, 24)
            chunk = words[i : i + size]
            if len(chunk) > 6 and self.rng.random() < 0.4:
                chunk[len(chunk) // 2] += ","
            out.append(_sentence(chunk) + ".")
            i += size
        return " ".join(out)

    def passage(self, n_words: int = PASSAGE_WORDS) -> list[str]:
        """Ordinary words alternating with document-unique terms."""
        plain = self.lex.sample(n_words // 2)
        words: list[str] = []
        for w in plain:
            words.append(self.lex.term())
            words.append(w)
        return words

    def quote(self, words: list[str], label: str) -> str:
        text = _sentence(words)
        self.labels[text] = label
        return text

    def one_token(self, words: list[str]) -> list[str]:
        # change an ordinary word (odd position), never a term
        pos = 2 * self.rng.randint(3, len(words) // 2 - 3) + 1
        changed = list(words)
        changed[pos] = self.lex.fake()
        return changed

    def paraphrase(self, words: list[str]) -> list[str]:
        out = list(words)
        for pos in range(1, len(out), 4):
            out[pos] = self.lex.sample(1)[0]
        for pos in range(2, len(out) - 1, 7):
            out[pos], out[pos + 1] = out[pos + 1], out[pos]
        return out

    def fabricated(self, n_words: int = PASSAGE_WORDS) -> list[str]:
        return [
            self.rng.choice(self.lex.common) if i % 3 == 0 else self.lex.fake()
            for i in range(n_words)
        ]

    def document(
        self,
        title: str,
        abstract: str,
        n_tokens: int,
        planted: list[str],
        n_sections: int,
    ) -> str:
        """Title, abstract, numbered sections with planted sentences, back matter."""
        lines = [title, "", "Abstract", "", abstract, ""]
        budget = n_tokens - len(abstract.split())
        per_section = max(budget // n_sections, 200)
        slots = [[] for _ in range(n_sections)]
        for i, sentence in enumerate(planted):
            slots[i % n_sections].append(sentence)
        for s in range(n_sections):
            lines += [f"{s + 1}. {self.lex.sample(1)[0].capitalize()} {self.lex.sample(1)[0]}", ""]
            remaining = per_section - sum(len(p.split()) for p in slots[s])
            n_paras = max(len(slots[s]) + 1, 3)
            for p in range(n_paras):
                body = self.paragraph(max(remaining // n_paras, 30))
                if p < len(slots[s]):
                    body += " " + slots[s][p] + "."
                lines += [body, ""]
        lines += ["Acknowledgements", "", self.paragraph(60), "", "References", ""]
        for r in range(1, 31):
            lines.append(f"[{r}] " + _sentence(self.lex.sample(9)) + ".")
        return "\n".join(lines) + "\n"


def _title_hash_id(title: str) -> str:
    return "title-hash:" + hashlib.md5(" ".join(title.lower().split()).encode()).hexdigest()


def generate(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    family = "abstract" if not spec["full_text"] else "fulltext"
    rng = random.Random(f"noveltycheck-perfbench:{family}:{seed}")
    lex = Lexicon(rng)
    w = Writer(lex)

    def name() -> str:
        return lex.term().capitalize()

    def title() -> str:
        return f"{name()}: {' '.join(lex.sample(6)).capitalize()}"

    # --- target ------------------------------------------------------------
    target_title = title()
    target_id = _title_hash_id(target_title)
    evidence = [w.passage() for _ in range(N_TARGET_EVIDENCE)]
    overlap = [w.passage() for _ in range(N_TARGET_OVERLAP)]
    claim_words = [w.passage(20) for _ in range(N_CLAIMS)]
    claims = [
        {
            "name": " ".join(lex.sample(5)).capitalize(),
            "author_claim_text": "we propose " + " ".join(words),
            "description": " ".join(lex.sample(28)).capitalize() + ".",
            "source_hint": "Introduction",
        }
        for words in claim_words
    ]
    planted = ["We propose " + " ".join(words) for words in claim_words]
    planted += [_sentence(p) for p in evidence + overlap]
    target_abstract = w.paragraph(160)
    paper_text = w.document(target_title, target_abstract, TARGET_TOKENS, planted, 6)

    # --- candidates ----------------------------------------------------------
    papers: dict[str, dict] = {}
    serial = itertools.count(10001)

    def paper(full_text: bool, late: bool = False) -> dict:
        yymm = (2507 + rng.randint(0, 4)) if late else rng.choice(
            [2301, 2305, 2309, 2402, 2406, 2410, 2501, 2503]
        )
        pid = f"{yymm}.{next(serial):05d}"
        abstract_passage = w.passage(30)
        abstract = w.paragraph(70) + " " + _sentence(abstract_passage) + ". " + w.paragraph(40)
        rec = {
            "id": f"arxiv:{pid}",
            "arxiv": pid,
            "title": title(),
            "abstract": abstract,
            "abstract_passage": abstract_passage,
            "full_text": None,
            "passages": [],
            "overlaps": [],
        }
        if full_text:
            k = len(papers)
            rec["passages"] = [w.passage(), w.passage()]
            rec["overlaps"] = [k % N_TARGET_OVERLAP, (k + 5) % N_TARGET_OVERLAP]
            body = [_sentence(p) for p in rec["passages"]]
            body += [_sentence(overlap[i]) for i in rec["overlaps"]]
            rec["full_text"] = w.document(rec["title"], abstract, CANDIDATE_TOKENS, body, 4)
        papers[rec["id"]] = rec
        return rec

    ft = spec["full_text"]
    core = [paper(ft and i % 2 == 0) for i in range(N_CORE)]
    own = [[paper(ft and j % 2 == 0) for j in range(OWN_PER_CLAIM)] for _ in range(N_CLAIMS)]
    noise_core = {
        "partial": [paper(False) for _ in range(4)],
        "reject": [paper(False) for _ in range(3)],
        "late": [paper(False, late=True) for _ in range(2)],
    }
    noise_claim = [(paper(False), paper(False, late=True)) for _ in range(N_CLAIMS)]

    # --- queries -------------------------------------------------------------
    prefix = "Find papers about "
    core_task = " ".join(lex.sample(10))
    core_variants = [" ".join(lex.sample(9)) for _ in range(2)]
    claim_primary = [prefix + " ".join(lex.sample(12)) for _ in range(N_CLAIMS)]
    claim_variants = [[prefix + " ".join(lex.sample(11)) for _ in range(2)] for _ in range(N_CLAIMS)]
    core_queries = [core_task] + core_variants
    claim_queries = [[claim_primary[c]] + claim_variants[c] for c in range(N_CLAIMS)]

    def hit(rec: dict, relevance: float, verdict=SUPPORT) -> dict:
        out = {
            "title": rec["title"],
            "abstract": rec["abstract"],
            "url": f"https://arxiv.org/abs/{rec['arxiv']}",
            "identifiers": {"arxiv_id": rec["arxiv"]},
            "relevance_score": round(relevance, 4),
            "verdict": verdict,
        }
        if rec["full_text"]:
            out["full_text"] = rec["full_text"]
        return out

    all_queries = core_queries + [q for qs in claim_queries for q in qs]
    results: dict[str, list[dict]] = {q: [] for q in all_queries}
    for i, rec in enumerate(core):
        rel = 0.99 - 0.007 * i
        results[core_queries[i % 3]].append(hit(rec, rel))
        if i % 3 == 0:  # a second, weaker sighting for the within-scope dedup
            results[core_queries[(i + 1) % 3]].append(hit(rec, rel - 0.05))
    for i, rec in enumerate(noise_core["partial"]):
        results[core_queries[i % 3]].append(hit(rec, 0.9, PARTIAL))
    for i, rec in enumerate(noise_core["reject"]):
        results[core_queries[i % 3]].append(hit(rec, 0.8, REJECT))
    for i, rec in enumerate(noise_core["late"]):
        results[core_queries[i % 3]].append(hit(rec, 0.97))
    self_hit = dict(hit(core[0], 0.995), title=target_title, url=None, identifiers={})
    self_hit.pop("full_text", None)
    results[core_queries[0]].append(self_hit)

    per_claim: list[list[dict]] = []
    for c in range(N_CLAIMS):
        overlaps = [core[5 * c + k + 1] for k in range(3)]
        shared = own[(c + 1) % N_CLAIMS][0]
        ranked = overlaps + own[c][:OWN_SELECTED] + [shared] + own[c][OWN_SELECTED:]
        per_claim.append(ranked[: 3 + OWN_SELECTED + 1])
        qs = claim_queries[c]
        for j, rec in enumerate(ranked):
            rel = 0.96 - 0.01 * j if j < 10 else 0.7 - 0.01 * j
            results[qs[j % 3]].append(hit(rec, rel))
            if j % 4 == 1:
                results[qs[(j + 1) % 3]].append(hit(rec, rel - 0.1))
        partial, late = noise_claim[c]
        results[qs[1]].append(hit(partial, 0.95, PARTIAL))
        results[qs[2]].append(hit(late, 0.99))

    failing = set()
    for k in range(spec["failing_queries"]):
        failing.add(all_queries[1 + 4 * k])
    search_fixture = {
        "queries": {
            q: {"results": results[q], "fail_times": 1 if q in failing else 0}
            for q in all_queries
        },
        "default": [],
    }

    # --- model responses -------------------------------------------------------
    rules: list[dict] = [
        {"system_contains": "publication date of a research paper", "response": TARGET_DATE},
        {"system_contains": "extract ONE short phrase", "response": core_task},
        {"system_contains": "extract the main contributions", "response": {"contributions": claims}},
        {
            "system_contains": "prior-work search queries",
            "response": "```json\n" + json.dumps({
                "queries": [
                    {"id": f"contribution_{c + 1}", "prior_work_query": claim_primary[c]}
                    for c in range(N_CLAIMS)
                ]
            }) + "\n```",
        },
        {
            "system_contains": "rewriting academic search queries",
            "user_contains": f"Original query:\n{core_task}\n\n",
            "response": {"variants": [prefix + v for v in core_variants]},
        },
    ]
    for c in range(N_CLAIMS):
        rules.append({
            "system_contains": "rewriting academic search queries",
            "user_contains": f"Original query:\n{claim_primary[c]}\n\n",
            "response": {"variants": claim_variants[c]},
        })

    # taxonomy: the target with its siblings first, 5-paper leaves after,
    # plus one hallucinated id and one duplicate for the deterministic repair
    core_ids = [p["id"] for p in core]
    leaves = [[target_id] + core_ids[:N_SIBLINGS]]
    rest = core_ids[N_SIBLINGS:]
    while rest:
        take = 6 if len(rest) == 6 else 5
        leaves.append(rest[:take])
        rest = rest[take:]
    leaves[2] = leaves[2] + ["arxiv:9999.99999"]
    leaves[-1] = leaves[-1] + [core_ids[10]]

    def node(**children) -> dict:
        return {
            "name": " ".join(lex.sample(3)).title(),
            "scope_note": " ".join(lex.sample(12)).capitalize() + ".",
            "exclude_note": " ".join(lex.sample(10)).capitalize() + ".",
            **children,
        }

    branches = [leaves[0:4], leaves[4:7], leaves[7:]]
    taxonomy = {
        "name": " ".join(lex.sample(3)).title() + " Survey Taxonomy",
        "subtopics": [
            node(subtopics=[node(papers=ids) for ids in group]) for group in branches
        ],
    }
    rules.append({"system_contains": "rigorous academic taxonomies", "response": taxonomy})

    mixed = spec["quote_mix"] == "all"
    refuted: list[list[str]] = []
    downgraded: list[list[str]] = []

    def evidence_pairs(rec: dict, k: int, pattern: str) -> list[dict]:
        cand_a = rec["passages"][0] if rec["passages"] else rec["abstract_passage"]
        cand_b = rec["passages"][1] if rec["passages"] else rec["abstract_passage"]
        orig = [evidence[(3 * k + d) % N_TARGET_EVIDENCE] for d in range(3)]
        if pattern == "verbatim":
            quads = [(orig[0], "verbatim", cand_a, "verbatim")]
        elif pattern == "mixed":
            quads = [
                (orig[0], "verbatim", cand_a, "verbatim"),
                (w.one_token(orig[1]), "one_token", w.one_token(cand_b), "one_token"),
                (w.paraphrase(orig[2]), "paraphrase", w.paraphrase(cand_a), "paraphrase"),
                (w.fabricated(), "fabricated", w.fabricated(), "fabricated"),
            ]
        else:  # every pair fabricated: the refutation must be downgraded
            quads = [(w.fabricated(), "fabricated", w.fabricated(), "fabricated")]
        return [
            {
                "original_quote": w.quote(o, ol),
                "original_paragraph_label": "Method",
                "candidate_quote": w.quote(cq, cl),
                "candidate_paragraph_label": "Approach",
                "rationale": " ".join(lex.sample(12)).capitalize() + ".",
            }
            for o, ol, cq, cl in quads
        ]

    home: dict[str, tuple[int, int]] = {}
    for c, members in enumerate(per_claim):
        for k, rec in enumerate(members[: 3 + OWN_SELECTED]):
            home[rec["id"]] = (c, k)
    for pid, (c, k) in home.items():
        rec = papers[pid]
        if mixed:
            pattern = "mixed" if k % 2 == 0 else "fabricated"
        else:
            pattern = "verbatim" if k % 3 == 0 else None
        analyses = []
        for ci, claim in enumerate(claims):
            entry = {"aspect": "contribution", "contribution_name": claim["name"]}
            if ci == c and pattern is not None:
                entry["refutation_status"] = "can_refute"
                entry["refutation_evidence"] = {
                    "summary": " ".join(lex.sample(30)).capitalize() + " [1].",
                    "evidence_pairs": evidence_pairs(rec, k, pattern),
                }
                (downgraded if pattern == "fabricated" else refuted).append(
                    [f"contribution_{c + 1}", pid]
                )
            else:
                entry["refutation_status"] = "cannot_refute" if (ci + k) % 4 else "unclear"
                entry["brief_note"] = " ".join(lex.sample(18)).capitalize() + "."
            analyses.append(entry)
        rules.append({
            "system_contains": "comparative reviewer",
            "user_contains": f"**Candidate Paper Title**: {rec['title']}",
            "response": {"contribution_analyses": analyses},
        })

    for i, rec in enumerate(core[:N_SIBLINGS]):
        body = json.dumps({
            "is_duplicate_variant": i == N_SIBLINGS - 1,
            "brief_comparison": " ".join(lex.sample(45)).capitalize() + ".",
        })
        rules.append({
            "system_contains": "SAME taxonomy category",
            "user_contains": f'"candidate_paper": {{"title": "{rec["title"]}',
            "response": f"```json\n{body}\n```" if i % 2 else body,
        })

    segments: dict[str, list[str]] = {}
    unified = core + [rec for group in own for rec in group[:OWN_SELECTED]]
    for i, rec in enumerate(r for r in unified if r["full_text"]):
        a, b = rec["overlaps"]
        z = (b + 3) % N_TARGET_OVERLAP
        pairs = [
            (w.quote(overlap[a], "verbatim"), w.quote(overlap[a], "verbatim"), "Direct"),
            (w.quote(w.one_token(overlap[b]), "one_token"), w.quote(overlap[b], "verbatim"), "Direct"),
        ]
        if i % 2:
            pairs.append((w.quote(w.paraphrase(overlap[z]), "paraphrase"),
                          w.quote(w.paraphrase(overlap[z]), "paraphrase"), "Paraphrase"))
        else:
            fake = w.quote(w.fabricated(), "fabricated")
            pairs.append((fake, fake, "Direct"))
        segments[rec["id"]] = [pairs[0][0], pairs[1][0]]
        body = json.dumps({
            "plagiarism_segments": [
                {
                    "segment_id": n + 1,
                    "location": "Method",
                    "original_text": o,
                    "candidate_text": cand,
                    "plagiarism_type": kind,
                    "rationale": " ".join(lex.sample(14)).capitalize() + ".",
                }
                for n, (o, cand, kind) in enumerate(pairs)
            ]
        })
        rules.append({
            "system_contains": "plagiarism detection system",
            "user_contains": f"<Paper_B>\n{rec['title']}\n",
            # odd candidates answer with prose around the JSON (span fallback)
            "response": f"Analysis follows.\n{body}\nEnd of analysis." if i % 2 else body,
        })

    one_liners = json.dumps({
        "items": [
            {"paper_id": pid, "brief_one_liner": " ".join(lex.sample(24)).capitalize() + "."}
            for pid in core_ids
        ]
    })
    rules += [
        # cut mid-string, as a length-limited completion would be
        {"system_contains": "one-liner summary", "response": one_liners[: len(one_liners) - 40]},
        {
            "system_contains": "survey-style narrative",
            "response": {
                "narrative": " ".join(lex.sample(80)).capitalize() + " [0] [1] [2].\n\n"
                + " ".join(lex.sample(80)).capitalize() + " [3] [0]."
            },
        },
        {
            "system_contains": "Originality / Novelty",
            "response": {
                "paragraphs": [" ".join(lex.sample(70)).capitalize() + f" [{n}]." for n in range(3)]
            },
        },
    ]

    labels = {
        "quotes": w.labels,
        "refuted": refuted,
        "downgraded": downgraded,
        "segments": segments,
    }
    settings = dict(spec, workload=workload, seed=seed, timestamp=TIMESTAMP,
                    initial_delay=RETRY_INITIAL_DELAY)
    return {
        "paper.txt": paper_text,
        "llm.json": {"rules": rules},
        "search.json": search_fixture,
        "labels.json": labels,
        "settings.json": settings,
    }


def write(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, content in generate(workload, seed).items():
        text = content if isinstance(content, str) else json.dumps(content, ensure_ascii=False)
        (out / name).write_text(text, encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
