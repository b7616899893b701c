"""The declarative artifact codec: round trips, defaults, None handling, errors."""

import json
from pathlib import Path

import pytest

from noveltycheck.analysis import CoreTaskAnalysis, NoveltyReport
from noveltycheck.codec import decode, encode
from noveltycheck.errors import InvalidInputError
from noveltycheck.extraction import ContributionClaim, Phase1Result
from noveltycheck.papers import PaperRecord
from noveltycheck.pipeline import PipelineConfig, run_pipeline
from noveltycheck.retrieval import Phase2Result

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = Path(__file__).parent / "goldens"


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """(class, JSON form) of each artifact; phase1 comes from a run on the bundled fixtures."""
    out = tmp_path_factory.mktemp("bundled")
    cfg = PipelineConfig(
        output_dir=out,
        mock=True,
        llm_fixture=FIXTURES / "mock_llm.json",
        search_fixture=FIXTURES / "mock_search.json",
        target_url="https://arxiv.org/abs/2504.01234",
        fixed_timestamp="2026-01-15T00:00:00+00:00",
    )
    assert run_pipeline((FIXTURES / "target_paper.txt").read_text(encoding="utf-8"), cfg).succeeded
    phase1 = _load(out / "phase1.json")
    return {
        "phase1.result": (Phase1Result, phase1["result"]),
        "phase1.target": (PaperRecord, phase1["target"]),
        "phase2": (Phase2Result, _load(GOLDENS / "phase2.json")),
        "phase3": (NoveltyReport, _load(GOLDENS / "phase3.json")),
    }


@pytest.mark.parametrize("name", ["phase1.result", "phase1.target", "phase2", "phase3"])
def test_artifact_round_trip_is_byte_identical(artifacts, name):
    cls, data = artifacts[name]
    assert _text(encode(decode(cls, data))) == _text(data)


@pytest.mark.parametrize(
    "cls, data, expected",
    [
        (
            ContributionClaim,
            {"claim_id": "contribution_1", "name": "Drift detector"},
            ContributionClaim(claim_id="contribution_1", name="Drift detector"),
        ),
        (
            CoreTaskAnalysis,
            {"mode": "isolated", "taxonomy_path": []},
            CoreTaskAnalysis(mode="isolated", taxonomy_path=[]),
        ),
    ],
    ids=["default", "default_factory"],
)
def test_absent_key_takes_declared_default(cls, data, expected):
    assert decode(cls, data) == expected


def test_zero_survives_in_optional_float():
    data = {"canonical_id": "doi:10.1/x", "title": "T", "relevance_score": 0.0, "url": None}
    record = decode(PaperRecord, data)
    assert record.relevance_score == 0.0 and record.relevance_score is not None
    assert record.url is None and record.publication_date is None
    assert encode(record)["relevance_score"] == 0.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["references"][0].pop("title"), r"ReportReference: missing required key 'title'"),
        (lambda d: d.pop("contribution_analysis"), r"NoveltyReport: .*'contribution_analysis'"),
        (lambda d: d.update(references=None), r"malformed NoveltyReport"),
    ],
    ids=["nested", "top_level", "null_list"],
)
def test_malformed_report_raises_invalid_input(artifacts, edit, message):
    data = json.loads(_text(artifacts["phase3"][1]))
    edit(data)
    with pytest.raises(InvalidInputError, match=message):
        decode(NoveltyReport, data)
