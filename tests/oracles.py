"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately written from the definitions rather than
by importing the production code paths it validates.
"""

from __future__ import annotations

import json
import random
from difflib import SequenceMatcher
from typing import Optional, Sequence

from noveltycheck.papers import normalize_text
from noveltycheck.verification import _TOKEN_RE, Document


# --- quality flag truth table -------------------------------------------------

SUPPORT = "support"
SOMEWHAT = "somewhat_support"
REJECT = "reject"
INSUFFICIENT = "insufficient_information"
ASSESSMENTS = (SUPPORT, SOMEWHAT, REJECT, INSUFFICIENT)


def flag_oracle(criteria: list[tuple[str, str]]) -> str:
    """Direct transcription of the flag mapping rules as an ordered table."""
    if not criteria:
        raise ValueError("empty criteria")
    assessments = [a for _, a in criteria]
    if set(assessments) == {SUPPORT}:
        return "perfect"
    if len(criteria) == 1:
        return "partial" if assessments[0] == SOMEWHAT else "no"
    for ctype, assessment in criteria:
        if assessment in (SUPPORT, SOMEWHAT) and ctype != "time":
            return "partial"
    return "no"


# --- longest-contiguous-block matching (independent of difflib) ---------------


def _longest_block(a, b, alo, ahi, blo, bhi):
    """Largest common contiguous block; ties to smallest a-start, then b-start."""
    best_i, best_j, best_size = alo, blo, 0
    j2len: dict[int, int] = {}
    for i in range(alo, ahi):
        new: dict[int, int] = {}
        for j in range(blo, bhi):
            if a[i] == b[j]:
                k = j2len.get(j - 1, 0) + 1
                new[j] = k
                if k > best_size:
                    best_i, best_j, best_size = i - k + 1, j - k + 1, k
        j2len = new
    return best_i, best_j, best_size


def matched_token_count(a: list[str], b: list[str]) -> int:
    """Total tokens covered by the recursive longest-block decomposition."""
    stack = [(0, len(a), 0, len(b))]
    total = 0
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        i, j, k = _longest_block(a, b, alo, ahi, blo, bhi)
        if k:
            total += k
            stack.append((alo, i, blo, j))
            stack.append((i + k, ahi, j + k, bhi))
    return total


def token_document(tokens: Sequence[str]) -> Document:
    """The document whose tokens are exactly ``tokens``, words the tokenizer keeps whole."""
    doc = Document(" ".join(tokens))
    assert doc.tokens == tuple(tokens), tokens
    return doc


def brute_force_coverage(anchor: list[str], doc: list[str]) -> float:
    """Best coverage over every window of the anchor's own length."""
    m, n = len(anchor), len(doc)
    if m == 0 or n == 0:
        return 0.0
    if n <= m:
        starts = [0]
        length = n
    else:
        starts = range(n - m + 1)
        length = m
    best = 0
    for s in starts:
        best = max(best, matched_token_count(anchor, doc[s : s + length]))
        if best == m:
            break
    return best / m


def every_window_alignment(anchor: list[str], doc: list[str]) -> tuple[float, Optional[tuple[int, int]]]:
    """(coverage, doc_span) of the leftmost best window, scanning every window.

    Matches each window with ``difflib.SequenceMatcher``, the alignment the
    library's definition names, and returns the span of the matched tokens
    in document coordinates, end exclusive.
    """
    m, n = len(anchor), len(doc)
    if m == 0 or n == 0:
        return 0.0, None
    length = min(m, n)
    best, span = 0, None
    matcher = SequenceMatcher(None, anchor, [], autojunk=False)
    for s in range(n - length + 1):
        matcher.set_seq2(doc[s : s + length])
        blocks = [b for b in matcher.get_matching_blocks() if b.size]
        matched = sum(b.size for b in blocks)
        if matched > best:
            best = matched
            span = (s + blocks[0].b, s + blocks[-1].b + blocks[-1].size)
    return (best / m if best else 0.0), span


# --- quotes planted in documents ----------------------------------------------


def noisy_copy(rng: random.Random, tokens: list[str], vocab: list[str], edits: int) -> list[str]:
    """``tokens`` after ``edits`` random substitutions, insertions and deletions."""
    copy = list(tokens)
    for _ in range(edits):
        i = rng.randrange(len(copy))
        op = rng.random()
        if op < 0.4:
            copy[i] = rng.choice(vocab)
        elif op < 0.7:
            copy.insert(i, rng.choice(vocab))
        elif len(copy) > 1:
            del copy[i]
    return copy


def planted_quote_case(rng: random.Random) -> tuple[str, str]:
    """A (quote, document) pair: filler text holding noisy copies of pieces of the quote.

    Quote tokens come from a small vocabulary that the filler also uses now
    and then, so anchors match partly in many places; pieces land close
    together or far apart, and are copied with no edits up to about half
    their length in edits, so hits, near misses and spread matches all occur.
    """
    vocab = [f"t{i}" for i in range(10)]
    quote = [rng.choice(vocab) for _ in range(rng.randint(4, 40))]
    doc = [
        rng.choice(vocab) if rng.random() < 0.1 else f"f{rng.randrange(40)}"
        for _ in range(rng.randint(50, 1200))
    ]
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(len(quote))
        j = rng.randint(i + 1, len(quote))
        piece = noisy_copy(rng, quote[i:j], vocab, rng.randint(0, (j - i) // 2 + 1))
        at = rng.randrange(len(doc))
        doc[at:at] = piece
    return " ".join(quote), " ".join(doc)


# --- tokenizer reference ------------------------------------------------------


def reference_tokens(text: str) -> list[str]:
    """Tokens of the normalized text, each lowercased once more on its own.

    ``normalize_text`` already lowercases the whole text, so the per-token
    pass must change nothing, ``"İ"`` and final sigma included.
    """
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(normalize_text(text))]


# --- truncation-repair oracle ---------------------------------------------------

_CLOSERS = {"{": "}", "[": "]"}


def truncation_repairs(base: str) -> list:
    """Every value a strict parser accepts for some suffix-trimmed candidate."""
    values = []
    in_string = False
    escape = False
    stack: list[str] = []
    states = []
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
                stack.append(ch)
            elif ch in "}]" and stack and _CLOSERS[stack[-1]] == ch:
                stack.pop()
        states.append((in_string, escape, tuple(stack)))
    for i in range(len(base), 0, -1):
        s_in, s_esc, s_stack = states[i - 1]
        if s_esc:
            continue
        closers = "".join(_CLOSERS[c] for c in reversed(s_stack))
        if s_in:
            candidates = [base[:i] + '"' + closers]
        else:
            prefix = base[:i].rstrip()
            candidates = [prefix + closers]
            if prefix.endswith(",") or prefix.endswith(":"):
                candidates.append(prefix[:-1].rstrip() + closers)
        for cand in candidates:
            try:
                values.append(json.loads(cand))
            except json.JSONDecodeError:
                continue
    return values
