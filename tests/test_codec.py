"""The declarative artifact codec: round trips, defaults, None handling, errors."""

import json
from pathlib import Path

import pytest

from noveltycheck.analysis import (
    CoreTaskAnalysis,
    CoreTaskSurvey,
    NoveltyReport,
    ReportMetadata,
    ReportReference,
)
from noveltycheck.codec import decode, encode
from noveltycheck.errors import InvalidInputError
from noveltycheck.extraction import ContributionClaim, CoreTask, Phase1Result
from noveltycheck.papers import PaperRecord
from noveltycheck.pipeline import PipelineConfig, run_pipeline
from noveltycheck.retrieval import Phase2Result
from noveltycheck.verification import QuoteLocation, SimilaritySegment

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


SURVEY = {
    "core_task": "t", "taxonomy": {"name": "T"}, "taxonomy_status": "valid",
    "taxonomy_content_hash": "h", "narrative": "n", "diagnostics": [],
}


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
        (CoreTaskSurvey, SURVEY, CoreTaskSurvey(**SURVEY, one_liners={})),
    ],
    ids=["default", "default_factory", "no_one_liners"],
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
        (lambda d: d.update(references=None), r"NoveltyReport: key 'references' is null"),
    ],
    ids=["nested", "top_level", "null_list"],
)
def test_malformed_report_raises_invalid_input(artifacts, edit, message):
    data = json.loads(_text(artifacts["phase3"][1]))
    edit(data)
    with pytest.raises(InvalidInputError, match=message):
        decode(NoveltyReport, data)


REFERENCE = {
    "index": 1, "alias": "A", "canonical_id": "arxiv:1", "title": "T", "url": None,
    "year": 2024, "is_original": False,
}
METADATA = {
    "generated_at": "now", "pipeline_version": "0.1.0",
    "artifact_filenames": {"phase1": "phase1.json"}, "warnings": [],
}
PAPER = {"canonical_id": "doi:10.1/x", "title": "T"}
ISOLATED = {"mode": "isolated", "taxonomy_path": []}


@pytest.mark.parametrize(
    "cls, data, key",
    [
        (ReportReference, {**REFERENCE, "title": 5}, "title"),
        (ReportReference, {**REFERENCE, "url": ["u"]}, "url"),
        (ReportReference, {**REFERENCE, "index": "1"}, "index"),
        (ReportReference, {**REFERENCE, "index": True}, "index"),
        (ReportReference, {**REFERENCE, "year": 2024.5}, "year"),
        (ReportReference, {**REFERENCE, "is_original": 0}, "is_original"),
        (QuoteLocation, {"found": True, "match_score": "0.5"}, "match_score"),
        (QuoteLocation, {"found": True, "match_score": False}, "match_score"),
        (QuoteLocation, {"found": True, "match_score": float("nan")}, "match_score"),
        (QuoteLocation, {"found": True, "match_score": float("inf")}, "match_score"),
        (PaperRecord, {**PAPER, "relevance_score": float("-inf")}, "relevance_score"),
        (CoreTaskAnalysis, {**ISOLATED, "taxonomy_path": "abc"}, "taxonomy_path"),
        (CoreTaskAnalysis, {**ISOLATED, "taxonomy_path": {}}, "taxonomy_path"),
        (CoreTaskAnalysis, {**ISOLATED, "taxonomy_path": ["a", None]}, "taxonomy_path"),
        (CoreTaskAnalysis, {**ISOLATED, "comparisons": [[]]}, "comparisons"),
        (CoreTask, {"text": "t", "audit_flags": "abc"}, "audit_flags"),
        (ReportMetadata, {**METADATA, "artifact_filenames": []}, "artifact_filenames"),
        (ReportMetadata, {**METADATA, "artifact_filenames": {"phase1": 1}}, "artifact_filenames"),
        (CoreTaskSurvey, {**SURVEY, "one_liners": {"arxiv:1": None}}, "one_liners"),
        (CoreTaskAnalysis, {**ISOLATED, "isolation": "alone"}, "isolation"),
        (PaperRecord, {**PAPER, "canonical_id": 5}, "canonical_id"),
        (PaperRecord, {**PAPER, "quality_flag": 1}, "quality_flag"),
    ],
    ids=[
        "str", "optional_str", "int", "int_rejects_bool", "optional_int_rejects_float", "bool",
        "float", "float_rejects_bool", "float_rejects_nan", "float_rejects_infinity",
        "optional_float_rejects_minus_infinity", "list_rejects_string", "list_rejects_object", "list_item",
        "dataclass_item", "tuple", "dict_rejects_array", "dict_value", "one_liner_value", "dataclass", "canonical_id",
        "enum",
    ],
)
def test_mistyped_value_raises_naming_class_and_key(cls, data, key):
    with pytest.raises(InvalidInputError, match=rf"^{cls.__name__}: key '{key}' "):
        decode(cls, data)


NAN_SEGMENT = SimilaritySegment(
    segment_id=1, location="", original_text="", candidate_text="", segment_type="Direct",
    rationale="", original_location=QuoteLocation(found=True, match_score=float("nan")),
)


@pytest.mark.parametrize(
    "obj, cls, key",
    [
        (QuoteLocation(found=True, match_score=float("nan")), "QuoteLocation", "match_score"),
        (QuoteLocation(found=False, match_score=float("inf")), "QuoteLocation", "match_score"),
        (NAN_SEGMENT, "QuoteLocation", "match_score"),
    ],
    ids=["nan", "infinity", "nested"],
)
def test_encode_rejects_a_non_finite_float_naming_class_and_key(obj, cls, key):
    message = rf"^{cls}: key '{key}' is (nan|inf), not a finite number$"
    with pytest.raises(InvalidInputError, match=message):
        encode(obj)


def test_float_field_takes_an_integer():
    assert decode(QuoteLocation, {"found": True, "match_score": 1}).match_score == 1


def test_optional_fields_take_null():
    reference = decode(ReportReference, {**REFERENCE, "url": None, "year": None})
    assert reference.url is None and reference.year is None
