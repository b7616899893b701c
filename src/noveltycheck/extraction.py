"""Phase I: structured-output parsing, claim validation, and query synthesis.

The model does the reading; this module does the enforcement. All field
limits, query formats, and fallback parsing rules live here so that any
output the model produces is either normalized into a valid shape or
rejected with a recorded reason.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .clients import LlmClient
from .codec import decode, encode
from .errors import ContributionRejected, LlmError, ParseFailureError, PhaseAbortError
from .prompts import complete
from .scheduler import Scheduler

logger = logging.getLogger(__name__)

QUERY_PREFIX = "Find papers about "

#: Word limits from the extraction contract.
MAX_NAME_WORDS = 15
MAX_CLAIM_WORDS = 40
MAX_DESCRIPTION_WORDS = 60
MAX_QUERY_WORDS = 25
MAX_CORE_TASK_WORDS = 15
MIN_CORE_TASK_WORDS = 5
MAX_CONTRIBUTIONS = 3


def word_count(text: str) -> int:
    return len(text.split())


def truncate_words(text: str, limit: int) -> str:
    words = text.split()
    if len(words) <= limit:
        return text.strip()
    return " ".join(words[:limit])


# --- robust structured-output parsing ----------------------------------------


@dataclass(frozen=True)
class ParsedOutput:
    """A parsed JSON value plus the fallback (if any) that recovered it."""

    value: Any
    fallback: Optional[str]  # None, "fence", "span", or "truncation"


_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*[ \t]*\n?(.*?)\n?[ \t]*```", re.DOTALL)

_CLOSERS = {"{": "}", "[": "]"}


def _strip_fences(text: str) -> str:
    m = _FENCE_RE.search(text)
    if m:
        return m.group(1)
    stripped = text.strip()
    if stripped.startswith("```"):
        stripped = stripped[3:]
        if stripped[:4].lower() == "json":
            stripped = stripped[4:]
        return stripped.strip("`").strip()
    return text


def _extract_span(text: str) -> Optional[str]:
    start = text.find("{")
    end = text.rfind("}")
    if start == -1 or end == -1 or end <= start:
        return None
    return text[start : end + 1]


def _scan_states(base: str) -> list[tuple[bool, bool, str]]:
    """Per-index parser state after consuming base[:i+1].

    Each entry is (in_string, escape_pending, open_bracket_stack).
    """
    states: list[tuple[bool, bool, str]] = []
    in_string = False
    escape = False
    stack = ""
    for ch in base:
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
        else:
            if ch == '"':
                in_string = True
            elif ch in "{[":
                stack += ch
            elif ch in "}]":
                if stack and _CLOSERS[stack[-1]] == ch:
                    stack = stack[:-1]
        states.append((in_string, escape, stack))
    return states


_MAX_TRUNCATION_ATTEMPTS = 2000


def _truncation_candidates(base: str) -> Iterable[str]:
    states = _scan_states(base)
    attempts = 0
    for i in range(len(base), 0, -1):
        in_string, escape, stack = states[i - 1]
        if escape:
            continue
        if in_string:
            candidate = base[:i] + '"' + "".join(_CLOSERS[c] for c in reversed(stack))
        else:
            prefix = base[:i].rstrip()
            if prefix.endswith(",") or prefix.endswith(":"):
                prefix = prefix[:-1].rstrip()
            candidate = prefix + "".join(_CLOSERS[c] for c in reversed(stack))
        attempts += 1
        yield candidate
        if attempts >= _MAX_TRUNCATION_ATTEMPTS:
            return


def _parse_truncated(text: str) -> Optional[Any]:
    start = text.find("{")
    if start == -1:
        return None
    base = text[start:]
    seen: set[str] = set()
    for candidate in _truncation_candidates(base):
        if candidate in seen:
            continue
        seen.add(candidate)
        try:
            return json.loads(candidate)
        except json.JSONDecodeError:
            continue
    return None


def parse_structured_output(raw: str) -> ParsedOutput:
    """Parse model output as JSON, applying ordered fallbacks on failure.

    Order: strict parse, code-fence stripping, first-brace-to-last-brace
    span extraction, bracket-based truncation of trailing incomplete
    content. Raises ParseFailureError (carrying the raw text) only when
    every fallback is exhausted.
    """
    if not raw or not raw.strip():
        raise ParseFailureError("empty model output", raw)
    try:
        return ParsedOutput(json.loads(raw), None)
    except json.JSONDecodeError:
        pass
    text = _strip_fences(raw)
    try:
        return ParsedOutput(json.loads(text), "fence")
    except json.JSONDecodeError:
        pass
    span = _extract_span(text)
    if span is not None:
        try:
            return ParsedOutput(json.loads(span), "span")
        except json.JSONDecodeError:
            pass
    value = _parse_truncated(text)
    if value is not None:
        return ParsedOutput(value, "truncation")
    raise ParseFailureError("model output is not recoverable JSON", raw)


def ask(llm: LlmClient, name: str, user: Any) -> ParsedOutput:
    """Send a named prompt whose reply must be a JSON object; anything else fails the parse."""
    raw = complete(llm, name, user)
    parsed = parse_structured_output(raw)
    if not isinstance(parsed.value, dict):
        raise ParseFailureError(f"{name} reply is not a JSON object", raw)
    return parsed


def reply_list(reply: Any, key: str, kind: type = object) -> list[Any]:
    """The ``kind`` items listed under ``key``; a missing, null or non-list value reads as empty."""
    items = reply.get(key) if isinstance(reply, Mapping) else None
    return [item for item in items if isinstance(item, kind)] if isinstance(items, list) else []


def reply_text(reply: Any, key: str, default: Optional[str] = "") -> Optional[str]:
    """The string under ``key``; anything else reads as ``default``, as does a non-object reply."""
    value = reply.get(key) if isinstance(reply, Mapping) else None
    return value if isinstance(value, str) else default


# --- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class CoreTask:
    """The 5-15 word problem phrase the core-task queries are made from."""

    text: str
    audit_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ContributionClaim:
    """One author-claimed contribution with enforced field limits."""

    claim_id: str
    name: str
    author_claim_text: str = "unknown"
    description: str = "unknown"
    source_hint: str = "unknown"
    audit_flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SearchQuery:
    query_id: str  # "<scope or claim id>:primary" or "...:variantN"
    text: str
    scope: str  # "core_task" or "contribution"
    contribution_id: Optional[str] = None


@dataclass(frozen=True)
class QuerySet:
    """Where each search query is stored: three per scope, primary first."""

    core_task_queries: tuple[SearchQuery, ...]
    contribution_queries: dict[str, tuple[SearchQuery, ...]]

    def all_queries(self) -> list[SearchQuery]:
        queries = list(self.core_task_queries)
        for group in self.contribution_queries.values():
            queries.extend(group)
        return queries

    @property
    def total(self) -> int:
        return len(self.core_task_queries) + sum(
            len(g) for g in self.contribution_queries.values()
        )


# --- validation ---------------------------------------------------------------


def normalize_query(text: str, *, require_prefix: bool) -> tuple[str, list[str]]:
    """Enforce the search-prefix and 25-word rules on one query string."""
    flags: list[str] = []
    q = " ".join(text.split())
    if require_prefix:
        if not q.startswith(QUERY_PREFIX):
            stripped = re.sub(r"^find papers about\s+", "", q, flags=re.IGNORECASE)
            q = QUERY_PREFIX + stripped
            flags.append("query_prefix_added")
    else:
        without = re.sub(r"^find papers about\s+", "", q, flags=re.IGNORECASE)
        if without != q:
            q = without
            flags.append("query_prefix_stripped")
    limit = MAX_QUERY_WORDS if require_prefix else MAX_CORE_TASK_WORDS
    if word_count(q) > limit:
        q = truncate_words(q, limit)
        flags.append("query_truncated")
    if word_count(q) < MIN_CORE_TASK_WORDS:
        flags.append("query_below_min_words")
    return q, flags


def validate_contribution(rawfields: Mapping[str, Any]) -> ContributionClaim:
    """Normalize one raw contribution object into a valid claim.

    Missing optional fields get the "unknown" sentinel with an audit flag;
    over-limit fields are truncated with an audit flag. A missing or empty
    name rejects the contribution outright. Idempotent on its own output.
    """
    name = reply_text(rawfields, "name").strip()
    if not name:
        raise ContributionRejected("contribution is missing a name")
    flags: list[str] = reply_list(rawfields, "audit_flags", str)

    def _flag(f: str) -> None:
        if f not in flags:
            flags.append(f)

    if word_count(name) > MAX_NAME_WORDS:
        name = truncate_words(name, MAX_NAME_WORDS)
        _flag("name_truncated")

    def _text_field(key: str, limit: Optional[int] = None) -> str:
        value = reply_text(rawfields, key).strip()
        if not value:
            _flag(f"{key}_defaulted")
            return "unknown"
        if limit is not None and word_count(value) > limit:
            _flag(f"{key}_truncated")
            return truncate_words(value, limit)
        return value

    claim_text = _text_field("author_claim_text", MAX_CLAIM_WORDS)
    description = _text_field("description", MAX_DESCRIPTION_WORDS)
    source_hint = _text_field("source_hint")
    return ContributionClaim(
        claim_id=reply_text(rawfields, "claim_id") or "contribution_1",
        name=name,
        author_claim_text=claim_text,
        description=description,
        source_hint=source_hint,
        audit_flags=tuple(flags),
    )


# --- model-backed extraction ---------------------------------------------------

_CORE_TASK_USER_TMPL = (
    "Read the following information about the paper and answer:\n"
    '"What is the core task this paper studies?" Return ONLY a single phrase as specified.\n\n'
    "Title: {title}\n"
    "Abstract: {abstract}\n"
    "Excerpt from main body (truncated after removing references): {body}\n"
)

_CONTRIBUTION_USER_TMPL = (
    'Extract up to three contributions claimed in this paper. Return "contributions" '
    "with items that satisfy the rules above.\n\n"
    "Title:\n{title}\n\n"
    "Main body text (truncated and references removed when possible):\n{body}\n"
)

_VARIANTS_USER_TMPL = "Original query:\n{primary}\n\nPlease provide 2-3 paraphrased variants.\n"

#: How much body text goes into extraction prompts.
_PROMPT_BODY_CHARS = 60_000


def _call_llm(
    call: Callable[[LlmClient, str, str], Any], llm: LlmClient, name: str, user: str
) -> Any:
    """One ``complete`` or ``ask``, retried once on a model error; a second error aborts Phase I."""
    last: Optional[Exception] = None
    for _ in range(2):
        try:
            return call(llm, name, user)
        except LlmError as exc:
            last = exc
            logger.warning("llm call failed, %s", exc)
    raise PhaseAbortError("phase1", f"llm call failed after retry: {last}")


def _clean_phrase(raw: str) -> str:
    line = raw.strip().splitlines()[0] if raw.strip() else ""
    return line.strip().strip('"').strip("'").rstrip(".").strip()


def extract_core_task(
    doc: str,
    llm: LlmClient,
    *,
    title: str = "",
    abstract: str = "",
) -> CoreTask:
    """Ask the model for the core-task phrase and enforce the 5-15 word bound.

    Over-long phrases are trimmed to 15 words with an audit flag. Under-length
    phrases earn exactly one re-request; a second violation aborts the phase.
    """
    if not doc.strip():
        raise PhaseAbortError("phase1", "document is empty")
    user = _CORE_TASK_USER_TMPL.format(
        title=title, abstract=abstract, body=doc[:_PROMPT_BODY_CHARS]
    )
    flags: list[str] = []
    phrase = _clean_phrase(_call_llm(complete, llm, "core_task", user))
    if word_count(phrase) < MIN_CORE_TASK_WORDS:
        logger.info("core task %r under 5 words, re-requesting once", phrase)
        phrase = _clean_phrase(_call_llm(complete, llm, "core_task", user))
        flags.append("core_task_rerequested")
        if word_count(phrase) < MIN_CORE_TASK_WORDS:
            raise PhaseAbortError(
                "phase1", f"core task still under {MIN_CORE_TASK_WORDS} words: {phrase!r}"
            )
    if word_count(phrase) > MAX_CORE_TASK_WORDS:
        phrase = truncate_words(phrase, MAX_CORE_TASK_WORDS)
        flags.append("core_task_trimmed")
    return CoreTask(text=phrase, audit_flags=tuple(flags))


def extract_contributions(
    doc: str,
    llm: LlmClient,
    *,
    title: str = "",
) -> tuple[list[ContributionClaim], list[str]]:
    """Extract up to three validated contribution claims.

    Returns the claims plus a warning list. Zero valid contributions is not
    fatal; the pipeline continues with core-task scope only.
    """
    user = _CONTRIBUTION_USER_TMPL.format(title=title, body=doc[:_PROMPT_BODY_CHARS])
    warnings: list[str] = []
    try:
        parsed = _call_llm(ask, llm, "contribution_extraction", user)
    except ParseFailureError:
        warnings.append("contribution extraction output unparseable; continuing without claims")
        return [], warnings
    if parsed.fallback:
        warnings.append(f"contribution extraction needed fallback parse: {parsed.fallback}")
    claims: list[ContributionClaim] = []
    seen_names: set[str] = set()
    for item in reply_list(parsed.value, "contributions", Mapping):
        try:
            claim = validate_contribution(item)
        except ContributionRejected as exc:
            warnings.append(f"contribution rejected: {exc}")
            continue
        key = claim.name.lower()
        if key in seen_names:
            warnings.append(f"duplicate contribution merged: {claim.name}")
            continue
        seen_names.add(key)
        claims.append(claim)
        if len(claims) == MAX_CONTRIBUTIONS:
            break
    claims = [replace(c, claim_id=f"contribution_{i + 1}") for i, c in enumerate(claims)]
    if not claims:
        warnings.append("no valid contributions extracted; core-task scope only")
    return claims, warnings


def expand_query_variants(
    primary: str,
    llm: LlmClient,
    *,
    require_prefix: bool,
) -> tuple[tuple[str, ...], list[str]]:
    """One variant-generation call around ``primary``: exactly three normalized query texts.

    This is where every query is normalized. The primary is normalized first
    and is what the model is shown; each variant is normalized in turn and
    dropped when it repeats the primary or an earlier variant. Fewer than two
    variants left are padded with the primary. Every normalization is flagged.
    """
    primary, flags = normalize_query(primary, require_prefix=require_prefix)
    raw_variants: list[str] = []
    try:
        parsed = ask(llm, "query_variants", _VARIANTS_USER_TMPL.format(primary=primary))
        raw_variants = reply_list(parsed.value, "variants", str)
    except (LlmError, ParseFailureError) as exc:
        logger.warning("variant generation failed for %r: %s", primary, exc)
        flags.append("variant_generation_failed")
    variants: list[str] = []
    for raw in raw_variants:
        if not raw.strip():
            continue
        query, vflags = normalize_query(raw, require_prefix=require_prefix)
        flags.extend(vflags)
        if query != primary and query not in variants:
            variants.append(query)
    while len(variants) < 2:
        variants.append(primary)
        flags.append("variant_padded_with_primary")
    return (primary, variants[0], variants[1]), flags


def generate_primary_queries(
    claims: Sequence[ContributionClaim],
    llm: LlmClient,
) -> tuple[dict[str, str], list[str]]:
    """One call producing the raw prior-work query for every claim id.

    A claim the reply misses gets a query synthesized from its description,
    or its name, with a warning. Normalization is left to ``expand_query_variants``.
    """
    warnings: list[str] = []
    answers: dict[str, str] = {}
    if claims:
        sections = []
        for claim in claims:
            sections.append(
                f"- [{claim.claim_id}]\n"
                f"  name: {claim.name}\n"
                f"  author_claim_text: {claim.author_claim_text}\n"
                f"  description: {claim.description}"
            )
        user = "Generate one query per claim for the following claims:\n" + "\n".join(sections)
        try:
            for entry in reply_list(ask(llm, "primary_query", user).value, "queries", Mapping):
                answers[reply_text(entry, "id")] = reply_text(entry, "prior_work_query")
        except (LlmError, ParseFailureError) as exc:
            warnings.append(f"primary query generation failed: {exc}")
    queries: dict[str, str] = {}
    for claim in claims:
        query = answers.get(claim.claim_id, "").strip()
        if not query:
            query = QUERY_PREFIX + truncate_words(
                claim.description if claim.description != "unknown" else claim.name, 12
            )
            warnings.append(f"synthesized fallback query for {claim.claim_id}")
        queries[claim.claim_id] = query
    return queries, warnings


def _search_queries(
    texts: Sequence[str], contribution_id: Optional[str] = None
) -> tuple[SearchQuery, ...]:
    scope = "contribution" if contribution_id else "core_task"
    return tuple(
        SearchQuery(
            query_id=f"{contribution_id or scope}:{'primary' if i == 0 else f'variant{i}'}",
            text=text,
            scope=scope,
            contribution_id=contribution_id,
        )
        for i, text in enumerate(texts)
    )


def assemble_query_set(
    core_queries: Sequence[str], claim_queries: Mapping[str, Sequence[str]]
) -> tuple[QuerySet, list[str]]:
    """Wrap the query texts from ``expand_query_variants`` as the Phase II query set.

    ``claim_queries`` maps each claim id to its texts, in claim order. Ids
    follow position: the first text of a scope is its primary, the rest its
    variants. The warning list names a total below the paper's 6-12 range.
    """
    query_set = QuerySet(
        core_task_queries=_search_queries(core_queries),
        contribution_queries={
            cid: _search_queries(texts, cid) for cid, texts in claim_queries.items()
        },
    )
    warnings: list[str] = []
    if query_set.total < 6:
        warnings.append(f"query count {query_set.total} below the 6-12 range (no contributions)")
    return query_set, warnings


@dataclass
class Phase1Result:
    """Everything Phase I hands to retrieval and analysis."""

    core_task: CoreTask
    claims: list[ContributionClaim] = field(metadata={"key": "contributions"})
    query_set: QuerySet
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Phase1Result":
        return decode(cls, d)


def run_extraction_phase(
    doc: str,
    llm: LlmClient,
    lane: Scheduler,
    *,
    title: str = "",
    abstract: str = "",
    on_queries: Callable[[tuple[SearchQuery, ...]], None] = lambda queries: None,
    on_calls_queued: Callable[[], Any] = lambda: None,
) -> Phase1Result:
    """Run Phase I on the model lane: the core-task and contribution chains side by side.

    Each scope's queries go to ``on_queries`` from the lane, as soon as its
    variant call returns; they carry the ids the assembled query set gives
    them. ``on_calls_queued`` runs once every Phase I model call is queued,
    so the calls it submits fill the lane slots Phase I leaves idle.
    """

    def _expand(
        primary: str, contribution_id: Optional[str] = None
    ) -> tuple[tuple[str, ...], list[str]]:
        texts, flags = expand_query_variants(
            primary, llm, require_prefix=contribution_id is not None
        )
        on_queries(_search_queries(texts, contribution_id))
        return texts, flags

    core_future = lane.submit(extract_core_task, doc, llm, title=title, abstract=abstract)
    claims_future = lane.submit(extract_contributions, doc, llm, title=title)
    core = core_future.result()
    core_expansion = lane.submit(_expand, core.text)
    claims, warnings = claims_future.result()
    primaries, query_warnings = lane.submit(generate_primary_queries, claims, llm).result()
    warnings.extend(query_warnings)
    claim_expansions = [
        lane.submit(_expand, primaries[claim.claim_id], claim.claim_id) for claim in claims
    ]
    on_calls_queued()
    expansions = [future.result() for future in claim_expansions]
    core_queries, core_flags = core_expansion.result()
    core = replace(core, audit_flags=core.audit_flags + tuple(core_flags))
    claims = [
        replace(claim, audit_flags=claim.audit_flags + tuple(vflags))
        for claim, (_, vflags) in zip(claims, expansions)
    ]
    query_set, count_warnings = assemble_query_set(
        core_queries,
        {claim.claim_id: texts for claim, (texts, _) in zip(claims, expansions)},
    )
    warnings.extend(count_warnings)
    return Phase1Result(core_task=core, claims=claims, query_set=query_set, warnings=warnings)
