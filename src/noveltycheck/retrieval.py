"""Phase II: fault-tolerant query execution and multi-layer candidate filtering.

Retrieval is broad on purpose; the filtering layers here (quality flag,
dedup, self-reference, temporal, Top-K) carry the precision burden. All
filtering is pure: the same results and policy produce the same candidate
set no matter the concurrency setting used to fetch them.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from threading import TIMEOUT_MAX, Event, Lock, Semaphore
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .clients import SearchClient, SearchHit
from .codec import decode, encode
from .errors import InvalidInputError, RetrievalEmptyError, SearchError
from .extraction import QuerySet, SearchQuery
from .papers import (
    PaperRecord,
    QualityFlag,
    SCHEME_PRIORITY,
    VerificationVerdict,
    canonical_id_of,
    compute_quality_flag,
    infer_publication_date,
    preprocess_document,
)
from .scheduler import Scheduler

logger = logging.getLogger(__name__)

DEFAULT_TOPK_CORE = 50
DEFAULT_TOPK_CONTRIBUTION = 10
#: retries one run's searches may make in all; at the default 8 attempts a run's at
#: most 12 queries can draw 84, so this binds only from 17 attempts on
GLOBAL_MAX_RETRIES = 180


@dataclass(frozen=True)
class RetryPolicy:
    """Retry and concurrency knobs for query execution."""

    max_query_attempts: int = 8
    initial_delay: float = 5.0
    concurrency: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.initial_delay, bool) or not isinstance(self.initial_delay, (int, float)):
            raise InvalidInputError("initial_delay must be a number")
        for name in ("max_query_attempts", "initial_delay", "concurrency"):
            if name != "initial_delay" and not isinstance(getattr(self, name), int):
                raise InvalidInputError(f"{name} must be an integer")
            if not getattr(self, name) > 0:  # refuses NaN too
                raise InvalidInputError(f"{name} must be positive")
        # each backoff, initial_delay * attempt, must fit a thread wait's timeout
        if self.initial_delay * self.max_query_attempts > TIMEOUT_MAX:
            raise InvalidInputError(
                f"initial_delay must be finite: initial_delay * max_query_attempts "
                f"is at most {TIMEOUT_MAX:g} s"
            )


@dataclass
class RetrievalResult:
    """One retrieved paper and the scope of the query that produced it."""

    paper: PaperRecord
    scope: str = "core_task"
    contribution_id: Optional[str] = None


@dataclass
class QueryFailure:
    query_id: str
    attempts: int
    error: str


@dataclass
class RetrievalBatch:
    """Results of executing a query set, with the failure log."""

    results: list[RetrievalResult]
    failures: list[QueryFailure]
    attempts_by_query: dict[str, int]


def _hit_to_result(
    hit: SearchHit, query: SearchQuery, documents: dict[str, str]
) -> Optional[RetrievalResult]:
    """Convert one search hit; ``documents`` holds the full texts preprocessed so far, by raw text."""
    if not hit.title or not hit.title.strip():
        logger.warning("dropping hit without a title from query %s", query.query_id)
        return None
    if math.isnan(hit.relevance_score):
        logger.warning("dropping hit with a NaN relevance score from query %s", query.query_id)
        return None
    metadata = dict(hit.identifiers)
    metadata["title"] = hit.title
    canonical = canonical_id_of(metadata)
    verdict = hit.verdict or VerificationVerdict.from_pairs([("topic", "insufficient_information")])
    flag = compute_quality_flag(verdict)
    date = hit.publication_date
    if date is None and hit.url:
        date = infer_publication_date(url=hit.url)
    relevance = min(max(float(hit.relevance_score), 0.0), 1.0)
    full_text = None
    if hit.full_text:
        full_text = documents.get(hit.full_text)
        if full_text is None:
            full_text = preprocess_document(hit.full_text, purpose="comparison")
            documents[hit.full_text] = full_text
    paper = PaperRecord(
        canonical_id=canonical,
        title=hit.title,
        abstract=hit.abstract,
        url=hit.url,
        relevance_score=relevance,
        publication_date=date,
        quality_flag=flag,
        full_text=full_text,
    )
    return RetrievalResult(paper=paper, scope=query.scope, contribution_id=query.contribution_id)


_Outcome = tuple[SearchQuery, Optional[list[SearchHit]], int, str]
# one try of a query: the query, its attempt number, the last error, its outcome
_Try = tuple[SearchQuery, int, str, "Future[_Outcome]"]


class QueryRunner:
    """Starts each search query once on the search lane, and collects the outcomes.

    A query is keyed by its id and its text. Each runs with up to
    ``max_query_attempts`` tries and a backoff of ``initial_delay * attempt``
    between them, drawing retries from one budget of ``GLOBAL_MAX_RETRIES``
    shared by every query the runner starts. Tries wait in two queues: retries
    whose backoff is over, and first tries. Each lane task makes the next try,
    a due retry before a first try, so a query that failed once is not kept
    waiting behind searches queued while it backed off. A backoff holds no
    lane worker: it waits off the lane, then queues its retry as due and
    submits one more lane task. A task's unexpected exception, or one raised
    by the backoff wait, re-raises when the query's outcome is collected.

    After ``stop`` no query makes another attempt, and a backoff wait ends
    at once unless ``sleep`` replaces it.
    """

    def __init__(
        self,
        search: SearchClient,
        policy: RetryPolicy,
        lane: Scheduler,
        *,
        sleep: Optional[Callable[[float], object]] = None,
    ) -> None:
        self._search = search
        self._policy = policy
        self._lane = lane
        self._stopped = Event()
        self._sleep = sleep or self._stopped.wait
        self._budget = Semaphore(GLOBAL_MAX_RETRIES)
        self._started: dict[tuple[str, str], Future[_Outcome]] = {}
        self._due: deque[_Try] = deque()
        self._first: deque[_Try] = deque()
        self._lock = Lock()

    def start(self, queries: Iterable[SearchQuery]) -> None:
        """Queue every query not started yet; safe to call from worker threads."""
        with self._lock:
            for query in queries:
                key = (query.query_id, query.text)
                if key not in self._started:
                    outcome: Future[_Outcome] = Future()
                    self._started[key] = outcome
                    self._first.append((query, 1, "", outcome))
                    self._lane.submit(self._next_try)

    def collect(self, queries: Sequence[SearchQuery]) -> list[_Outcome]:
        """Each query's outcome in ``queries`` order, starting the ones not started yet."""
        self.start(queries)
        with self._lock:
            futures = [self._started[(query.query_id, query.text)] for query in queries]
        return [future.result() for future in futures]

    def stop(self) -> None:
        """Give up every query: no further attempts, and backoff waits end now."""
        self._stopped.set()

    def _next_try(self) -> None:
        """One lane task: make the next try, a due retry before a first try.

        Every try is queued before the task that makes it is submitted, and
        each task makes one, so a task never finds both queues empty.
        """
        with self._lock:
            tried = (self._due or self._first).popleft()
        self._attempt(*tried)

    def _attempt(self, query: SearchQuery, attempt: int, error: str, outcome: Future) -> None:
        """Try ``query`` once; settle ``outcome``, or queue the next try after its backoff."""
        policy = self._policy
        if self._stopped.is_set():
            outcome.set_result((query, None, attempt - 1, error or "search stopped"))
            return
        try:
            hits = self._search.search(query.text)
        except SearchError as exc:
            error = str(exc)
            logger.warning("query %s attempt %d failed: %s", query.query_id, attempt, exc)
            if attempt == policy.max_query_attempts:
                outcome.set_result((query, None, attempt, error))
            elif not self._budget.acquire(blocking=False):
                logger.error("global retry budget exhausted; abandoning %s", query.query_id)
                outcome.set_result((query, None, attempt, error))
            else:
                retry: _Try = (query, attempt + 1, error, outcome)
                self._lane.submit_after(
                    functools.partial(self._back_off, policy.initial_delay * attempt, retry),
                    self._next_try,
                )
            return
        except Exception as exc:
            outcome.set_exception(exc)
            return
        logger.info(
            "query %s succeeded on attempt %d with %d hits", query.query_id, attempt, len(hits)
        )
        outcome.set_result((query, hits, attempt, ""))

    def _back_off(self, delay: float, retry: _Try) -> None:
        """Wait ``delay``, then queue ``retry`` as due; a failed wait settles its outcome."""
        try:
            self._sleep(delay)
        except BaseException as exc:
            retry[3].set_exception(exc)
            raise
        with self._lock:
            self._due.append(retry)


def execute_queries(
    queries: Sequence[SearchQuery],
    runner: QueryRunner,
    *,
    on_core_collected: Optional[Callable[[list[RetrievalResult]], object]] = None,
) -> RetrievalBatch:
    """Collect every query's outcome from ``runner``, with graceful degradation.

    Queries ``runner`` has not started yet are started here. Failed queries
    are logged and skipped; the batch only raises when every query failed.
    Outcomes are collected in query order; once the last core-scope query's
    is in, ``on_core_collected`` gets the core-scope results, before the
    outcomes after it are waited on.
    """
    query_list = list(queries)
    if not query_list:
        raise InvalidInputError("query set is empty")

    results: list[RetrievalResult] = []
    failures: list[QueryFailure] = []
    documents: dict[str, str] = {}
    attempts: dict[str, int] = {}
    core_end = 1 + max((i for i, q in enumerate(query_list) if q.scope == "core_task"), default=-1)

    def _collect(part: list[SearchQuery]) -> None:
        for query, hits, tries, error in runner.collect(part):
            attempts[query.query_id] = tries
            if hits is None:
                failures.append(QueryFailure(query.query_id, tries, error))
                continue
            for hit in hits:
                result = _hit_to_result(hit, query, documents)
                if result is not None:
                    results.append(result)

    runner.start(query_list)
    _collect(query_list[:core_end])
    if on_core_collected is not None:
        on_core_collected([r for r in results if r.scope == "core_task"])
    _collect(query_list[core_end:])
    if not results and len(failures) == len(query_list):
        raise RetrievalEmptyError()
    return RetrievalBatch(results=results, failures=failures, attempts_by_query=attempts)


# --- filtering -----------------------------------------------------------------


@dataclass
class FilterStats:
    raw: int = 0
    after_quality: int = 0
    after_dedup: int = 0
    after_self_reference: int = 0
    after_temporal: int = 0
    selected: int = 0


@dataclass
class FilterOutcome:
    selected: list[PaperRecord]
    stats: FilterStats
    diagnostics: list[str] = field(default_factory=list)


def _is_self_reference(paper: PaperRecord, target: PaperRecord) -> bool:
    if paper.canonical_id == target.canonical_id:
        return True
    if paper.url and target.url and paper.url == target.url:
        return True
    return paper.title_hash == target.title_hash


def filter_scope(
    results: Sequence[RetrievalResult],
    scope: str,
    k: int,
    target: PaperRecord,
) -> FilterOutcome:
    """Apply the per-scope filtering layers in their fixed order.

    (1) keep only perfect quality flags, (2) dedup by canonical id keeping
    the highest-relevance instance, (3) drop self-references to the target,
    (4) drop candidates dated strictly after the target (unknown dates
    pass), (5) rank by relevance and keep the top ``k``.
    """
    stats = FilterStats(raw=len(results))
    diagnostics: list[str] = []

    perfect: list[RetrievalResult] = []
    for r in results:
        if r.paper.quality_flag is QualityFlag.PERFECT:
            perfect.append(r)
        elif r.paper.quality_flag is QualityFlag.PARTIAL:
            diagnostics.append(f"partial flag, not ranked: {r.paper.canonical_id}")
    stats.after_quality = len(perfect)

    best: dict[str, RetrievalResult] = {}
    order: list[str] = []
    for r in perfect:
        key = r.paper.canonical_id
        if key not in best:
            best[key] = r
            order.append(key)
        elif r.paper.relevance_score > best[key].paper.relevance_score:
            best[key] = r
    deduped = [best[key].paper for key in order]
    stats.after_dedup = len(deduped)

    no_self = [p for p in deduped if not _is_self_reference(p, target)]
    stats.after_self_reference = len(no_self)

    in_time = []
    for p in no_self:
        if (
            p.publication_date is not None
            and target.publication_date is not None
            and p.publication_date.definitely_after(target.publication_date)
        ):
            diagnostics.append(f"temporal filter dropped {p.canonical_id}")
            continue
        in_time.append(p)
    stats.after_temporal = len(in_time)

    # equal relevance breaks ties on canonical id for determinism
    ranked = sorted(
        in_time, key=lambda p: (-(p.relevance_score or 0.0), p.canonical_id)
    )
    selected = ranked[:k]
    stats.selected = len(selected)
    logger.info(
        "scope %s filtered %d -> %d -> %d -> %d",
        scope, stats.raw, stats.after_quality, stats.after_dedup, stats.selected,
    )
    return FilterOutcome(selected=selected, stats=stats, diagnostics=diagnostics)


@dataclass
class CandidateSet:
    """The deduplicated candidate pool, and each scope's Top-K as ids into it.

    ``unified`` is the only place a paper record lives, each canonical id at
    most once. ``core_task`` and each ``per_contribution`` list hold the ids
    of the unified entries their scope's records merged into, in rank order,
    each id at most once; which scopes selected a paper is read from them.
    The filtering funnel is not stored: ``summarize_filtering`` derives it.
    """

    core_task: list[str]
    per_contribution: dict[str, list[str]]
    unified: list[PaperRecord]

    def __post_init__(self) -> None:
        known = {paper.canonical_id for paper in self.unified}
        if len(known) != len(self.unified):
            raise InvalidInputError("unified candidates must not repeat a canonical id")
        for ids in (self.core_task, *self.per_contribution.values()):
            if len(set(ids)) != len(ids):
                raise InvalidInputError("per-scope lists must not repeat an id")
            if not all(pid in known for pid in ids):
                raise InvalidInputError("per-scope lists must hold ids of unified candidates")


def _better_id(a: str, b: str) -> str:
    """Whichever id's scheme ranks first in ``SCHEME_PRIORITY``; ``a`` on a tie."""
    return min(a, b, key=lambda cid: SCHEME_PRIORITY[cid.partition(":")[0]])


def cross_scope_dedup(
    core: Sequence[PaperRecord],
    per_contribution: Mapping[str, Sequence[PaperRecord]],
) -> CandidateSet:
    """Merge the per-scope Top-K lists into one deduplicated candidate pool.

    Two records are the same work when their canonical ids match or their
    normalized titles hash identically. On a collision the pool keeps the
    first record seen, core scope first, with the higher-priority identifier
    scheme seen on either side, and takes the url, date and full text from
    the later record only where its own are missing. The merged entry is a
    new record: the inputs are never changed. Each scope's list comes back as
    the ids of the entries its records merged into.
    """
    unified: list[PaperRecord] = []
    index: dict[str, int] = {}

    def _insert(paper: PaperRecord) -> int:
        """Merge ``paper`` into the pool; return the position of its entry."""
        keys = [paper.canonical_id, f"title:{paper.title_hash}"]
        hit = next((index[key] for key in keys if key in index), None)
        if hit is None:
            hit = len(unified)
            unified.append(paper)
        else:
            kept = unified[hit]
            missing = {
                name: getattr(paper, name)
                for name in ("url", "publication_date", "full_text")
                if getattr(kept, name) is None
            }
            unified[hit] = replace(
                kept, canonical_id=_better_id(kept.canonical_id, paper.canonical_id), **missing
            )
        for key in keys:
            index.setdefault(key, hit)
        return hit

    core_positions = [_insert(paper) for paper in core]
    contribution_positions = {
        cid: [_insert(paper) for paper in papers] for cid, papers in per_contribution.items()
    }

    def _ids(positions: list[int]) -> list[str]:
        # read only now: a later merge can still upgrade an entry's id
        return [unified[pos].canonical_id for pos in dict.fromkeys(positions)]

    return CandidateSet(
        core_task=_ids(core_positions),
        per_contribution={cid: _ids(pos) for cid, pos in contribution_positions.items()},
        unified=unified,
    )


@dataclass
class Phase2Result:
    candidate_set: CandidateSet
    core_stats: FilterStats
    contribution_stats: dict[str, FilterStats]
    failures: list[QueryFailure]
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Phase2Result":
        return decode(cls, d)


def summarize_filtering(result: Phase2Result) -> dict[str, Any]:
    """The filtering funnel across every scope, from ``result`` alone: the results
    retrieved, the papers the scopes' Top-K kept, summed, the unified pool, and the
    percentages of the first two that did not reach the pool."""
    scopes = [result.core_stats, *result.contribution_stats.values()]
    raw_total, combined = sum(s.raw for s in scopes), sum(s.selected for s in scopes)
    unified = len(result.candidate_set.unified)

    def _pct(total: int) -> float:
        return round(100.0 * (total - unified) / total, 1) if total else 0.0

    return {
        "raw_total": raw_total,
        "combined": combined,
        "unified": unified,
        "overall_filtered_pct": _pct(raw_total),
        "cross_scope_removed_pct": _pct(combined),
    }


def run_retrieval_phase(
    query_set: QuerySet,
    runner: QueryRunner,
    target: PaperRecord,
    *,
    topk_core: int = DEFAULT_TOPK_CORE,
    topk_contribution: int = DEFAULT_TOPK_CONTRIBUTION,
    on_core_selected: Optional[Callable[[CandidateSet], object]] = None,
) -> Phase2Result:
    """Collect the query set's outcomes from ``runner`` and run the full filtering pipeline.

    The core scope is filtered as soon as its outcomes are in, and its
    deduplicated pool, ``cross_scope_dedup`` of the selection alone, goes to
    ``on_core_selected`` before the contribution scopes' outcomes are waited
    on. The final pool starts with the same core entries unless a
    contribution-scope record merges into one of them.
    """
    core: list[FilterOutcome] = []

    def _core_collected(results: list[RetrievalResult]) -> None:
        core.append(filter_scope(results, "core_task", topk_core, target))
        if on_core_selected is not None:
            on_core_selected(cross_scope_dedup(core[0].selected, {}))

    batch = execute_queries(query_set.all_queries(), runner, on_core_collected=_core_collected)
    core_outcome = core[0]

    per_contribution: dict[str, list[PaperRecord]] = {}
    contribution_stats: dict[str, FilterStats] = {}
    diagnostics = list(core_outcome.diagnostics)
    for cid in query_set.contribution_queries:
        scoped = [r for r in batch.results if r.contribution_id == cid]
        outcome = filter_scope(scoped, cid, topk_contribution, target)
        per_contribution[cid] = outcome.selected
        contribution_stats[cid] = outcome.stats
        diagnostics.extend(outcome.diagnostics)

    return Phase2Result(
        candidate_set=cross_scope_dedup(core_outcome.selected, per_contribution),
        core_stats=core_outcome.stats,
        contribution_stats=contribution_stats,
        failures=batch.failures,
        diagnostics=diagnostics,
    )
