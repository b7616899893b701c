"""Token-level anchor alignment for quote and overlap verification.

A quote is split into anchors of at least 20 characters. Each anchor is
aligned against same-length windows of the document; its coverage is the
fraction of anchor tokens matched in the best window. A verbatim anchor is
found by probing its rarest token; otherwise only windows holding one of
its rarest tokens are aligned, enough of them that no better window lies
elsewhere. The quote's confidence combines mean hit coverage and hit
ratio, halved when the matched anchors are spread more than 300 tokens
apart. Scores use the exact rational form (7*c + 3*h)/10 so identity cases
come out at 1.0.
"""

from __future__ import annotations

import functools
import logging
import re
import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from difflib import SequenceMatcher
from typing import Optional, Sequence

from .papers import fold_text

logger = logging.getLogger(__name__)

MIN_ANCHOR_CHARS = 20
ANCHOR_HIT_THRESHOLD = 0.6
QUOTE_FOUND_THRESHOLD = 0.6  # strict: a score of exactly 0.6 is not found
MAX_COMPACT_GAP = 300
MIN_SEGMENT_WORDS = 30
MAX_SEGMENTS_KEPT = 3

# apostrophes and intra-word hyphens stay inside tokens; everything else splits
# (fold_text has already folded curly apostrophes and dashes to these); whitespace
# is never part of a token, so the fold need not collapse it
_TOKEN_RE = re.compile(r"[^\W_]+(?:['-][^\W_]+)*", re.UNICODE)


class _TokenPositions:
    """Each token's ascending positions in ``tokens``, read-only.

    ``counts`` holds how often each token occurs. ``get`` finds a token's
    positions from its first one the first time they are read, and keeps
    them; two threads reading the same token at once find equal tuples, and
    both keep the first one stored. An absent token has no positions.
    """

    def __init__(self, tokens: tuple[str, ...], counts: Counter, first: dict[str, int]) -> None:
        self._tokens = tokens
        self.counts = counts
        self._first = first
        self._found: dict[str, tuple[int, ...]] = {}

    def get(self, token: str) -> tuple[int, ...]:
        found = self._found.get(token)
        if found is None:
            at = self._first.get(token)
            if at is None:
                return ()
            index = self._tokens.index
            positions = [at]
            for _ in range(self.counts[token] - 1):
                at = index(token, at + 1)
                positions.append(at)
            found = self._found.setdefault(token, tuple(positions))
        return found


def _token_positions(tokens: tuple[str, ...]) -> _TokenPositions:
    """The position map of ``tokens``, from two passes in C: the counts and each first position."""
    first = dict(zip(reversed(tokens), range(len(tokens) - 1, -1, -1)))
    return _TokenPositions(tokens, Counter(tokens), first)


def tokenize(text: str) -> tuple[str, ...]:
    """Normalize the text, then split on whitespace and punctuation boundaries.

    This is the one place text is normalized for matching, so a quote and
    the document it was copied from fold quotes, dashes, compatibility
    forms and case the same way. Pass the text as written, not normalized.

    The folded text is split on whitespace first, which no token holds. A
    word that is all letters and digits is one token, as ``_TOKEN_RE``
    would find it (``str.isalnum`` is the test ``[^\\W_]`` makes); only the
    other words go through the expression.
    """
    tokens: list[str] = []
    keep, split = tokens.append, tokens.extend
    for word in fold_text(text).split():
        if word.isalnum():
            keep(word)
        else:
            split(_TOKEN_RE.findall(word))
    return tuple(tokens)


class Document:
    """A text that quotes are verified against.

    ``tokens`` and ``positions``, which gives each token's ascending
    indices, are built together the first time either is read, once, under
    this document's own lock: a document shared by worker threads is
    tokenized once and never changes after that, so once built it is read
    without the lock. A document made but never searched is never tokenized.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self._lock = threading.Lock()
        self._built: Optional[tuple[tuple[str, ...], _TokenPositions]] = None

    def _build(self) -> tuple[tuple[str, ...], _TokenPositions]:
        built = self._built
        if built is None:
            with self._lock:
                if self._built is None:
                    tokens = tokenize(self.text)
                    self._built = (tokens, _token_positions(tokens))
                built = self._built
        return built

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._build()[0]

    @property
    def positions(self) -> _TokenPositions:
        return self._build()[1]


@dataclass(frozen=True)
class Anchor:
    """A contiguous slice of the quote's tokens used as an alignment unit."""

    tokens: tuple[str, ...]
    start_index: int


def segment_anchors(quote: Sequence[str]) -> list[Anchor]:
    """Greedy left-to-right segmentation into anchors of >= 20 characters.

    A short final remainder merges into the previous anchor; a quote under
    20 characters yields a single undersized anchor. The anchors partition
    the quote's tokens in order.
    """
    anchors: list[Anchor] = []
    current: list[str] = []
    current_start = 0
    current_len = 0
    for i, token in enumerate(quote):
        if not current:
            current_start = i
            current_len = len(token)
        else:
            current_len += 1 + len(token)
        current.append(token)
        if current_len >= MIN_ANCHOR_CHARS:
            anchors.append(Anchor(tokens=tuple(current), start_index=current_start))
            current = []
            current_len = 0
    if current:
        if anchors:
            tail = anchors.pop()
            anchors.append(
                Anchor(tokens=tail.tokens + tuple(current), start_index=tail.start_index)
            )
        else:
            anchors.append(Anchor(tokens=tuple(current), start_index=current_start))
    return anchors


@dataclass(frozen=True)
class AnchorMatch:
    """Best-window alignment result for one anchor."""

    coverage: float
    doc_span: Optional[tuple[int, int]]  # token interval, end exclusive

    @property
    def is_hit(self) -> bool:
        return self.coverage >= ANCHOR_HIT_THRESHOLD


@functools.cache
def hit_floor(anchor_len: int) -> int:
    """Fewest matched tokens that make an anchor of ``anchor_len`` tokens a hit.

    Found with the test ``AnchorMatch.is_hit`` applies, so a match count is
    at least the floor exactly when its coverage is a hit.
    """
    return next(
        k for k in range(1, anchor_len + 1) if AnchorMatch(k / anchor_len, None).is_hit
    )


def _matched_tokens(matcher: SequenceMatcher) -> tuple[int, Optional[tuple[int, int]]]:
    blocks = [b for b in matcher.get_matching_blocks() if b.size > 0]
    if not blocks:
        return 0, None
    total = sum(b.size for b in blocks)
    span = (blocks[0].b, blocks[-1].b + blocks[-1].size)
    return total, span


def _verbatim_start(
    anchor: tuple[str, ...], doc: tuple[str, ...], positions: _TokenPositions
) -> Optional[int]:
    """Leftmost start where the anchor occurs verbatim, probing its rarest token."""
    count = positions.counts.get
    q = min(range(len(anchor)), key=lambda i: count(anchor[i], 0))
    last_start = len(doc) - len(anchor)
    for p in positions.get(anchor[q]):
        start = p - q
        if 0 <= start <= last_start and doc[start : start + len(anchor)] == anchor:
            return start
    return None


def align_anchor(
    anchor_tokens: Sequence[str], doc: Document, min_matched: int = 0
) -> AnchorMatch:
    """Find the document window of the anchor's length with the most matched tokens.

    Matching uses longest-contiguous-subsequence alignment; coverage is
    matched anchor tokens divided by anchor length. Ties go to the leftmost
    window. The result equals a scan of every window, at every document size.

    With ``min_matched`` (at most the anchor's length), a best window that
    matches fewer tokens is not searched for: the result is then a miss,
    ``AnchorMatch(0.0, None)``, and otherwise the same as without it.

    A window matching ``floor = max(min_matched, 1)`` tokens misses at most
    ``m - floor`` of the anchor's ``m`` tokens, so it holds a position of
    one of the ``m - floor + 1`` rarest (counted with repeats); only windows
    around those positions are candidates. A start whose window holds the
    same anchor-token positions as the start before it matches the same
    tokens and is skipped. Matched tokens form a common subsequence, so
    their count is at most the multiset overlap of anchor and window; the
    matcher runs only where that overlap beats the best count so far, which
    starts just under ``floor``.
    """
    anchor_tokens = tuple(anchor_tokens)
    doc_tokens, positions = doc.tokens, doc.positions
    m, n = len(anchor_tokens), len(doc_tokens)
    if m == 0 or n == 0:
        return AnchorMatch(coverage=0.0, doc_span=None)

    start = _verbatim_start(anchor_tokens, doc_tokens, positions)
    if start is not None:
        return AnchorMatch(coverage=1.0, doc_span=(start, start + m))

    window_len = min(m, n)
    floor = max(min_matched, 1)
    need = Counter(anchor_tokens)
    count = positions.counts.get
    rarest = sorted(anchor_tokens, key=lambda token: count(token, 0))
    probes = sorted({p for token in rarest[: m - floor + 1] for p in positions.get(token)})
    last_start = n - window_len
    best_matched = floor - 1
    best_span: Optional[tuple[int, int]] = None
    matcher: Optional[SequenceMatcher] = None
    previous = -2  # the last candidate start so far
    for p in probes:
        for start in range(max(p - window_len + 1, previous + 1, 0), min(p, last_start) + 1):
            end = start + window_len
            same = (
                start - 1 == previous
                and doc_tokens[start - 1] not in need
                and doc_tokens[end - 1] not in need
            )
            previous = start
            if same:
                continue
            window = doc_tokens[start:end]
            if sum(min(window.count(t), c) for t, c in need.items()) <= best_matched:
                continue
            if matcher is None:
                matcher = SequenceMatcher(None, anchor_tokens, window, autojunk=False)
            else:
                matcher.set_seq2(window)
            matched, span = _matched_tokens(matcher)
            if matched > best_matched:
                best_matched = matched
                best_span = (start + span[0], start + span[1])
    if best_span is None:
        return AnchorMatch(coverage=0.0, doc_span=None)
    return AnchorMatch(coverage=best_matched / m, doc_span=best_span)


@dataclass(frozen=True)
class QuoteLocation:
    """Verification outcome for one quote against one document."""

    found: bool
    match_score: float


@dataclass(frozen=True)
class QuoteVerification:
    """QuoteLocation plus the per-anchor detail behind it."""

    location: QuoteLocation
    anchor_matches: tuple[AnchorMatch, ...]
    hit_ratio: float
    mean_hit_coverage: float
    compact: bool


def _spans_compact(matches: Sequence[AnchorMatch]) -> bool:
    spans = sorted(m.doc_span for m in matches if m.is_hit and m.doc_span is not None)
    reach = spans[0][1] if spans else 0  # the furthest end so far
    for start, end in spans:
        if start - reach > MAX_COMPACT_GAP:
            return False
        reach = max(reach, end)
    return True


def combine_score(mean_hit_coverage: float, hit_ratio: float, compact: bool) -> float:
    """Weighted confidence from anchor statistics, halved when non-compact.

    Uses the rational form (7*c + 3*h)/10 so that perfect inputs produce
    exactly 1.0 and the non-compact penalty is an exact factor of 0.5.
    """
    score = (7.0 * mean_hit_coverage + 3.0 * hit_ratio) / 10.0
    if not compact:
        score *= 0.5
    return score


def _verify(quote: str, doc: Document, hits_only: bool) -> QuoteVerification:
    anchors = segment_anchors(tokenize(quote))
    if not anchors or not doc.tokens:
        return QuoteVerification(
            location=QuoteLocation(found=False, match_score=0.0),
            anchor_matches=(),
            hit_ratio=0.0,
            mean_hit_coverage=0.0,
            compact=True,
        )
    matches = tuple(
        align_anchor(a.tokens, doc, hit_floor(len(a.tokens)) if hits_only else 0)
        for a in anchors
    )
    hits = [m for m in matches if m.is_hit]
    hit_ratio = len(hits) / len(matches)
    # added left to right, not with sum(): from Python 3.12 sum() compensates
    # rounding, which moves the last digit of some scores between versions
    total_coverage = 0.0
    for m in hits:
        total_coverage += m.coverage
    mean_coverage = total_coverage / len(hits) if hits else 0.0
    compact = _spans_compact(matches)
    score = combine_score(mean_coverage, hit_ratio, compact)
    return QuoteVerification(
        location=QuoteLocation(found=score > QUOTE_FOUND_THRESHOLD, match_score=score),
        anchor_matches=matches,
        hit_ratio=hit_ratio,
        mean_hit_coverage=mean_coverage,
        compact=compact,
    )


def verify_quote_detailed(quote: str, doc: Document) -> QuoteVerification:
    """Score a quote against a document and keep the per-anchor evidence.

    A caller verifying many quotes against one text passes one ``Document``
    for it, so the text is tokenized once. Mean coverage averages the hit
    anchors only. Every anchor's coverage is exact, misses included.
    """
    return _verify(quote, doc, hits_only=False)


def verify_quote(quote: str, doc: Document) -> QuoteLocation:
    """Locate a quote in a document; found iff the confidence exceeds 0.6.

    Equals ``verify_quote_detailed(quote, doc).location``. The score reads
    only hit anchors, so an anchor's best window is searched for only among
    windows that would make it a hit.
    """
    return _verify(quote, doc, hits_only=True).location


# --- similarity segments --------------------------------------------------------


@dataclass(frozen=True)
class SimilaritySegment:
    """One reported overlap passage between the target and a candidate."""

    segment_id: int
    location: str
    original_text: str
    candidate_text: str
    segment_type: str = field(metadata={"key": "type"})  # "Direct" or "Paraphrase"
    rationale: str
    verified: bool = False
    original_location: Optional[QuoteLocation] = None
    candidate_location: Optional[QuoteLocation] = None

    @property
    def min_word_count(self) -> int:
        return min(len(self.original_text.split()), len(self.candidate_text.split()))


def verify_segment(
    seg: SimilaritySegment,
    doc_a: Document,
    doc_b: Document,
) -> SimilaritySegment:
    """A segment is verified when both quotes are found and it spans 30+ words.

    The candidate quote is checked only once the original quote is found;
    otherwise ``candidate_location`` stays ``None`` and ``doc_b`` is not read.
    """
    original_loc = verify_quote(seg.original_text, doc_a)
    candidate_loc = verify_quote(seg.candidate_text, doc_b) if original_loc.found else None
    verified = (
        candidate_loc is not None
        and candidate_loc.found
        and seg.min_word_count >= MIN_SEGMENT_WORDS
    )
    return replace(
        seg,
        verified=verified,
        original_location=original_loc,
        candidate_location=candidate_loc,
    )


def filter_segments(segments: Sequence[SimilaritySegment]) -> list[SimilaritySegment]:
    """Keep at most three verified segments, largest word counts first, stable ties."""
    ordered = sorted(segments, key=lambda s: -s.min_word_count)
    return ordered[:MAX_SEGMENTS_KEPT]
