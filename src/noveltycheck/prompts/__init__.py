"""Prompt text assets and the one path by which they reach the model client.

A prompt's system text is ``<name>.txt``; a prompt whose user turn is prose
has it in ``<name>.user.txt``, with ``str.format`` fields.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from ..clients import LlmClient

#: Every prompt asset by name, with its sampling temperature: the two
#: paraphrasing tasks sample, every other prompt is greedy.
TEMPERATURES = {
    "core_task": 0.1,
    "query_variants": 0.2,
    "contribution_extraction": 0.0,
    "primary_query": 0.0,
    "publication_date": 0.0,
    "taxonomy_construction": 0.0,
    "taxonomy_repair": 0.0,
    "narrative_synthesis": 0.0,
    "one_liner": 0.0,
    "similarity_detection": 0.0,
    "claim_comparison": 0.0,
    "overall_assessment": 0.0,
    "sibling_distinction": 0.0,
    "subtopic_comparison": 0.0,
}


@lru_cache(maxsize=None)
def assets() -> dict[str, str]:
    """Every ``*.txt`` file in this package, file name to text, read once per process."""
    files = resources.files(__package__).iterdir()
    return {f.name: f.read_text(encoding="utf-8") for f in sorted(files, key=lambda f: f.name)
            if f.name.endswith(".txt")}


def _asset(name: str, suffix: str) -> str:
    if name not in TEMPERATURES:
        raise KeyError(f"unknown prompt asset: {name}")
    return assets()[name + suffix]


def load_prompt(name: str) -> str:
    """The system text of prompt ``name``."""
    return _asset(name, ".txt")


def user_text(name: str, **fields: Any) -> str:
    """The user turn of prompt ``name``: ``<name>.user.txt`` with ``fields`` filled in."""
    return _asset(name, ".user.txt").format(**fields)


def complete(llm: LlmClient, name: str, user: Any) -> str:
    """Send one named prompt at its temperature; a non-string ``user`` goes as JSON."""
    if not isinstance(user, str):
        user = json.dumps(user, ensure_ascii=False)
    return llm.complete(load_prompt(name), user, TEMPERATURES[name])
