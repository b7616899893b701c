"""Paper identity, metadata, quality flags, and document normalization.

Everything in this module is a pure function on immutable inputs, safe to
call from any number of concurrent workers. Higher phases build on these
primitives for deduplication, temporal filtering, and text comparison.
"""

from __future__ import annotations

import logging
import re
import string
import unicodedata
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from hashlib import md5
from typing import Any, Mapping, Optional, Sequence, TYPE_CHECKING

from .errors import InvalidInputError
from .prompts import complete

if TYPE_CHECKING:  # pragma: no cover
    from .clients import LlmClient

logger = logging.getLogger(__name__)

#: Hard cap applied to any document after preprocessing.
MAX_DOCUMENT_CHARS = 200_000


#: The schemes of a canonical id ``<scheme>:<value>``; lower values win when
#: two identifiers describe the same work.
SCHEME_PRIORITY = {"doi": 0, "arxiv": 1, "openreview": 2, "title-hash": 3}


def check_canonical_id(canonical_id: str) -> None:
    """Refuse an id that is not ``<scheme>:<value>`` for a scheme in ``SCHEME_PRIORITY``."""
    scheme, colon, _ = canonical_id.partition(":")
    if not colon or scheme not in SCHEME_PRIORITY:
        raise InvalidInputError(f"unknown canonical id scheme: {canonical_id!r}")


class QualityFlag(str, Enum):
    PERFECT = "perfect"
    PARTIAL = "partial"
    NO = "no"


class Assessment(str, Enum):
    SUPPORT = "support"
    SOMEWHAT_SUPPORT = "somewhat_support"
    REJECT = "reject"
    INSUFFICIENT_INFORMATION = "insufficient_information"


@dataclass(frozen=True)
class CriterionAssessment:
    criterion_type: str
    assessment: Assessment


@dataclass(frozen=True)
class VerificationVerdict:
    """Per-criterion relevance assessments returned by the search engine."""

    criteria: tuple[CriterionAssessment, ...]

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, str]]) -> "VerificationVerdict":
        return cls(tuple(CriterionAssessment(t, Assessment(a)) for t, a in pairs))

    @classmethod
    def from_dicts(cls, items: Sequence[Mapping[str, str]]) -> "VerificationVerdict":
        return cls.from_pairs([(d["criterion_type"], d["assessment"]) for d in items])


@dataclass(frozen=True)
class PublicationDate:
    """Best-effort publication date with explicit granularity and source tier."""

    year: int
    month: Optional[int] = None
    day: Optional[int] = None
    granularity: str = "year"
    source_tier: str = "regex"

    def __post_init__(self) -> None:
        expected = "year"
        if self.month is not None:
            expected = "year-month"
        if self.day is not None:
            expected = "year-month-day"
        if self.granularity != expected:
            object.__setattr__(self, "granularity", expected)
        if self.day is not None and self.month is None:
            raise InvalidInputError("day given without month")
        if self.month is not None and not 1 <= self.month <= 12:
            raise InvalidInputError(f"month out of range: {self.month}")
        if self.day is not None and not 1 <= self.day <= 31:
            raise InvalidInputError(f"day out of range: {self.day}")

    def earliest(self) -> tuple[int, int, int]:
        return (self.year, self.month or 1, self.day or 1)

    def latest(self) -> tuple[int, int, int]:
        return (self.year, self.month or 12, self.day or 31)

    def definitely_after(self, other: "PublicationDate") -> bool:
        """True only when every date this could denote is after ``other``.

        Unknown month/day components get the benefit of the doubt, which
        keeps the temporal filter from silently shrinking recall.
        """
        return self.earliest() > other.latest()


@dataclass(frozen=True)
class PaperRecord:
    """A target or retrieved paper: its ``<scheme>:<value>`` id, metadata and text."""

    canonical_id: str
    title: str
    abstract: str = ""
    url: Optional[str] = None
    relevance_score: Optional[float] = None
    publication_date: Optional[PublicationDate] = None
    quality_flag: Optional[QualityFlag] = None
    full_text: Optional[str] = None

    def __post_init__(self) -> None:
        check_canonical_id(self.canonical_id)
        if not self.title or not self.title.strip():
            raise InvalidInputError("paper title must be non-empty")
        if self.relevance_score is not None and not 0.0 <= self.relevance_score <= 1.0:
            raise InvalidInputError(f"relevance score out of [0,1]: {self.relevance_score}")

    @cached_property
    def title_hash(self) -> str:
        return title_hash(self.title)


_WS_RE = re.compile(r"\s+")

_CHAR_TRANSLATION = str.maketrans(
    {
        "‘": "'",
        "’": "'",
        "“": '"',
        "”": '"',
        "–": "-",
        "—": "-",
        " ": " ",
    }
)


def fold_text(text: str) -> str:
    """Apply NFKC, replace common unicode variants, and lowercase; whitespace is kept."""
    return unicodedata.normalize("NFKC", text).translate(_CHAR_TRANSLATION).lower()


def normalize_text(text: str) -> str:
    """Fold the text, then collapse whitespace runs and strip the ends."""
    return _WS_RE.sub(" ", fold_text(text)).strip()


def normalize_title(title: str) -> str:
    """Canonical form of a title used for hashing and dedup.

    Lowercases, collapses whitespace runs to single spaces, and strips
    surrounding whitespace and punctuation. Idempotent.
    """
    if not title or not title.strip():
        raise InvalidInputError("title must be non-empty")
    t = normalize_text(title)
    t = t.strip(string.punctuation + string.whitespace)
    return _WS_RE.sub(" ", t).strip()


def title_hash(title: str) -> str:
    """MD5 hex digest of the normalized title: two equivalent titles hash alike."""
    return md5(normalize_title(title).encode("utf-8")).hexdigest()


_DOI_PREFIXES = ("https://doi.org/", "http://doi.org/", "http://dx.doi.org/", "doi:")
_ARXIV_VERSION_RE = re.compile(r"v\d+$")


def _clean_doi(value: str) -> str:
    v = value.strip().lower()
    for prefix in _DOI_PREFIXES:
        if v.startswith(prefix):
            v = v[len(prefix):]
    return v


def _clean_arxiv(value: str) -> str:
    v = value.strip()
    if v.lower().startswith("arxiv:"):
        v = v[6:]
    return _ARXIV_VERSION_RE.sub("", v)


def canonical_id_of(metadata: Mapping[str, Any]) -> str:
    """Pick the highest-priority identifier present in ``metadata``, as ``<scheme>:<value>``.

    Recognized keys: ``doi``, ``arxiv_id``, ``openreview_id``, ``title``.
    Unknown keys are ignored. Falls back to ``title-hash:`` and the
    ``title_hash`` of the title when no registry identifier is available.
    """
    title = metadata.get("title") or ""
    if not str(title).strip():
        raise InvalidInputError("metadata must include a non-empty title")
    doi = str(metadata.get("doi") or "").strip()
    if doi:
        return f"doi:{_clean_doi(doi)}"
    arxiv = str(metadata.get("arxiv_id") or "").strip()
    if arxiv:
        return f"arxiv:{_clean_arxiv(arxiv)}"
    openreview = str(metadata.get("openreview_id") or "").strip()
    if openreview:
        return f"openreview:{openreview}"
    return f"title-hash:{title_hash(str(title))}"


def compute_quality_flag(verdict: VerificationVerdict) -> QualityFlag:
    """Map a verification verdict onto a perfect/partial/no quality flag.

    A paper is perfect when every criterion is supported. Single-criterion
    verdicts are partial only on somewhat_support. Multi-criterion verdicts
    are partial when at least one non-time criterion is at least somewhat
    supported; everything else is no.
    """
    criteria = verdict.criteria
    if not criteria:
        raise InvalidInputError("verdict must carry at least one criterion")
    if all(c.assessment is Assessment.SUPPORT for c in criteria):
        return QualityFlag.PERFECT
    if len(criteria) == 1:
        if criteria[0].assessment is Assessment.SOMEWHAT_SUPPORT:
            return QualityFlag.PARTIAL
        return QualityFlag.NO
    for c in criteria:
        if (
            c.assessment in (Assessment.SUPPORT, Assessment.SOMEWHAT_SUPPORT)
            and c.criterion_type != "time"
        ):
            return QualityFlag.PARTIAL
    return QualityFlag.NO


# --- publication date inference -------------------------------------------

_ARXIV_NEW_RE = re.compile(r"arxiv\.org/(?:abs|pdf)/(\d{2})(\d{2})\.\d{4,5}", re.IGNORECASE)
_ARXIV_OLD_RE = re.compile(
    r"arxiv\.org/(?:abs|pdf)/[a-z][a-z-]*(?:\.[A-Za-z]{2})?/(\d{2})(\d{2})\d{3}",
    re.IGNORECASE,
)

_MONTH_NAMES = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5, "june": 6,
    "july": 7, "august": 8, "september": 9, "october": 10, "november": 11,
    "december": 12,
}

_ISO_FULL_RE = re.compile(r"\b(\d{4})-(\d{2})-(\d{2})\b")
_ISO_YM_RE = re.compile(r"\b(\d{4})-(\d{2})\b(?!-)")
_MONTH_NAME_RE = re.compile(
    r"\b(" + "|".join(_MONTH_NAMES) + r")\s+(\d{4})\b", re.IGNORECASE
)
_BARE_YEAR_RE = re.compile(r"\b(19\d{2}|20\d{2})\b")


def _date_from_url(url: str) -> Optional[PublicationDate]:
    m = _ARXIV_NEW_RE.search(url)
    if m:
        yy, mm = int(m.group(1)), int(m.group(2))
        if 1 <= mm <= 12:
            return PublicationDate(2000 + yy, mm, source_tier="url")
    m = _ARXIV_OLD_RE.search(url)
    if m:
        yy, mm = int(m.group(1)), int(m.group(2))
        if 1 <= mm <= 12:
            year = 1900 + yy if yy >= 90 else 2000 + yy
            return PublicationDate(year, mm, source_tier="url")
    return None


def _date_from_text(text: str, tier: str) -> Optional[PublicationDate]:
    for m in _ISO_FULL_RE.finditer(text):
        y, mo, d = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if 1900 <= y <= 2100 and 1 <= mo <= 12 and 1 <= d <= 31:
            return PublicationDate(y, mo, d, source_tier=tier)
    for m in _MONTH_NAME_RE.finditer(text):
        y = int(m.group(2))
        if 1900 <= y <= 2100:
            return PublicationDate(y, _MONTH_NAMES[m.group(1).lower()], source_tier=tier)
    for m in _ISO_YM_RE.finditer(text):
        y, mo = int(m.group(1)), int(m.group(2))
        if 1900 <= y <= 2100 and 1 <= mo <= 12:
            return PublicationDate(y, mo, source_tier=tier)
    m = _BARE_YEAR_RE.search(text)
    if m:
        return PublicationDate(int(m.group(1)), source_tier=tier)
    return None


def infer_publication_date(
    url: Optional[str] = None,
    front_matter: Optional[str] = None,
    llm: Optional["LlmClient"] = None,
) -> Optional[PublicationDate]:
    """Three-tier date inference: URL patterns, front-matter regexes, LLM.

    The first tier that produces a date wins. Malformed URLs are skipped
    rather than raised. Returns None when every tier comes up empty.
    """
    if url is None and front_matter is None and llm is None:
        raise InvalidInputError("at least one input must be provided")
    if url:
        date = _date_from_url(url)
        if date:
            return date
    if front_matter:
        date = _date_from_text(front_matter, tier="regex")
        if date:
            return date
    if llm is not None and front_matter:
        try:
            answer = complete(llm, "publication_date", front_matter[:4000])
        except Exception as exc:  # LLM tier is best effort
            logger.warning("date inference LLM call failed: %s", exc)
            return None
        date = _date_from_text(answer, tier="llm")
        if date:
            return date
    return None


# --- document preprocessing -------------------------------------------------

_REFERENCE_HEADINGS = frozenset({"references", "bibliography"})
_ACK_HEADINGS = frozenset(
    {"acknowledgements", "acknowledgments", "acknowledgement", "acknowledgment"}
)
_HEADING_PREFIX_RE = re.compile(r"^(?:[0-9]+|[ivxlc]+)[.)]?\s+", re.IGNORECASE)


def heading_core(line: str) -> str:
    """The comparable text of a heading line, or '' for ordinary prose."""
    stripped = line.strip()
    if not stripped or len(stripped) > 80:
        return ""
    stripped = stripped.lstrip("#").strip()
    stripped = _HEADING_PREFIX_RE.sub("", stripped)
    return stripped.rstrip(":.").strip().lower()


def _iter_lines_with_offsets(text: str):
    offset = 0
    for line in text.splitlines(keepends=True):
        yield offset, line
        offset += len(line)


def _find_heading(text: str, names: frozenset[str]) -> Optional[int]:
    for offset, line in _iter_lines_with_offsets(text):
        if heading_core(line) in names:
            return offset
    return None


def _looks_like_heading(line: str) -> bool:
    stripped = line.strip()
    if not stripped:
        return False
    if stripped.startswith("#"):
        return True
    if len(stripped) > 60 or stripped[-1] in ".?!,;":
        return False
    return bool(re.match(r"^(?:\d+[.)]\s+)?[A-Z]", stripped))


def _remove_section(text: str, names: frozenset[str]) -> str:
    start = _find_heading(text, names)
    if start is None:
        return text
    lines = list(_iter_lines_with_offsets(text))
    end = len(text)
    seen_heading = False
    for offset, line in lines:
        if offset < start:
            continue
        if offset == start:
            seen_heading = True
            continue
        if seen_heading and _looks_like_heading(line):
            end = offset
            break
    return text[:start] + text[end:]


def preprocess_document(raw: str, purpose: str = "extraction") -> str:
    """Truncate a plain-text document; the result keeps the source's characters.

    Both purposes drop everything from the first references or bibliography
    heading onward and cap the result at 200K characters. The comparison
    variant additionally removes the acknowledgements section so overlap
    detection does not trip on boilerplate. Matching normalizes the text
    when it tokenizes it, so the result is shown to the model and matched
    against quotes as is.
    """
    if not raw:
        raise InvalidInputError("document text must be non-empty")
    if purpose not in ("extraction", "comparison"):
        raise InvalidInputError(f"unknown purpose: {purpose}")
    text = raw
    ref_offset = _find_heading(text, _REFERENCE_HEADINGS)
    if ref_offset is not None:
        text = text[:ref_offset]
    if purpose == "comparison":
        text = _remove_section(text, _ACK_HEADINGS)
    text = text[:MAX_DOCUMENT_CHARS]
    if not text.strip():
        logger.warning("document became empty after preprocessing")
    return text
