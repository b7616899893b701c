"""Command-line entry points for running and inspecting the pipeline."""

from __future__ import annotations

import functools
import json
import logging
import sys
from pathlib import Path

import click

from .errors import InvalidInputError, NoveltyCheckError
from .papers import preprocess_document
from .pipeline import PipelineConfig, read_report, run_pipeline, write_report
from .render import output_filename
from .retrieval import RetryPolicy
from .taxonomy import TaxonomyNode, validate_taxonomy
from .verification import Document, verify_quote_detailed


def _exit_on_error(command):
    """Report bad input or a pipeline error as one ``error:`` line and exit 1."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (NoveltyCheckError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Novelty analysis pipeline: extract, retrieve, analyze, render."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True, path_type=Path), required=True,
              help="Plain-text paper to analyze.")
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("out"), show_default=True)
@click.option("--mock", is_flag=True, help="Use fixture-driven mock clients.")
@click.option("--llm-fixture", type=click.Path(exists=True, path_type=Path))
@click.option("--search-fixture", type=click.Path(exists=True, path_type=Path))
@click.option("--llm-endpoint", envvar="NOVELTYCHECK_LLM_ENDPOINT")
@click.option("--llm-model", default="default", show_default=True)
@click.option("--llm-api-key", envvar="NOVELTYCHECK_LLM_API_KEY")
@click.option("--search-endpoint", envvar="NOVELTYCHECK_SEARCH_ENDPOINT")
@click.option("--search-api-key", envvar="NOVELTYCHECK_SEARCH_API_KEY")
@click.option("--concurrency", type=int, default=1, show_default=True,
              help="Width of each client's lane: up to N model calls and up to N "
                   "searches in flight at once. Searches start during extraction.")
@click.option("--max-attempts", type=int, default=8, show_default=True)
@click.option("--initial-delay", type=float, default=5.0, show_default=True)
@click.option("--topk-core", type=int, default=50, show_default=True)
@click.option("--topk-contribution", type=int, default=10, show_default=True)
@click.option("--resume", is_flag=True, help="Reuse existing phase artifacts.")
@click.option("--timestamp", help="Fixed timestamp for reproducible reports.")
@click.option("--title", help="Override the target paper title.")
@click.option("--url", help="Target paper URL (also used for date inference).")
@click.option("--emit-pdf", is_flag=True)
@click.option("--quote-limit", type=int, default=90, show_default=True)
@_exit_on_error
def run(
    input_path: Path,
    out_dir: Path,
    mock: bool,
    llm_fixture: Path | None,
    search_fixture: Path | None,
    llm_endpoint: str | None,
    llm_model: str,
    llm_api_key: str | None,
    search_endpoint: str | None,
    search_api_key: str | None,
    concurrency: int,
    max_attempts: int,
    initial_delay: float,
    topk_core: int,
    topk_contribution: int,
    resume: bool,
    timestamp: str | None,
    title: str | None,
    url: str | None,
    emit_pdf: bool,
    quote_limit: int,
) -> None:
    """Run the full four-phase pipeline on one paper."""
    cfg = PipelineConfig(
        output_dir=out_dir,
        mock=mock,
        llm_fixture=llm_fixture,
        search_fixture=search_fixture,
        llm_endpoint=llm_endpoint,
        llm_model=llm_model,
        llm_api_key=llm_api_key,
        search_endpoint=search_endpoint,
        search_api_key=search_api_key,
        retry=RetryPolicy(
            max_query_attempts=max_attempts,
            initial_delay=initial_delay,
            concurrency=concurrency,
        ),
        topk_core=topk_core,
        topk_contribution=topk_contribution,
        analysis_concurrency=concurrency,
        resume=resume,
        fixed_timestamp=timestamp,
        target_title=title,
        target_url=url,
        emit_pdf=emit_pdf,
        quote_truncation_limit=quote_limit,
    )
    manifest = run_pipeline(input_path.read_text(encoding="utf-8"), cfg)
    for name, status in manifest.phases.items():
        click.echo(f"{name}: {status.status}" + (f" ({status.error})" if status.error else ""))
    sys.exit(0 if manifest.succeeded else 1)


@main.command("verify-quote")
@click.option("--quote", required=True, help="Quote text to locate.")
@click.option("--doc", "doc_path", type=click.Path(exists=True, path_type=Path), required=True,
              help="Plain-text document to search.")
@_exit_on_error
def verify_quote_cmd(quote: str, doc_path: Path) -> None:
    """Check whether a quote can be verified in a document."""
    doc = preprocess_document(doc_path.read_text(encoding="utf-8"), purpose="comparison")
    result = verify_quote_detailed(quote, Document(doc))
    click.echo(
        json.dumps(
            {
                "found": result.location.found,
                "match_score": result.location.match_score,
                "anchors": len(result.anchor_matches),
                "hit_ratio": result.hit_ratio,
                "mean_hit_coverage": result.mean_hit_coverage,
                "compact": result.compact,
            },
            indent=2,
        )
    )


@main.command("validate-taxonomy")
@click.option("--input", "input_path", type=click.Path(exists=True, path_type=Path), required=True,
              help="Taxonomy JSON file.")
@click.option("--allowed", "allowed_path", type=click.Path(exists=True, path_type=Path),
              required=True, help="JSON list of allowed paper ids.")
@click.option("--original", help="Canonical id that must appear exactly once.")
@_exit_on_error
def validate_taxonomy_cmd(input_path: Path, allowed_path: Path, original: str | None) -> None:
    """Validate a taxonomy against its allowed id set; exit 1 when invalid."""
    tax = TaxonomyNode.from_dict(json.loads(input_path.read_text(encoding="utf-8")))
    allowed = json.loads(allowed_path.read_text(encoding="utf-8"))
    if not isinstance(allowed, list) or not all(isinstance(pid, str) for pid in allowed):
        raise InvalidInputError(f"{allowed_path.name} must hold a JSON array of strings")
    report = validate_taxonomy(tax, set(allowed), original)
    click.echo(json.dumps(report.to_dict(), indent=2))
    sys.exit(0 if report.is_valid else 1)


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True, path_type=Path), required=True,
              help="Phase III report JSON.")
@click.option("--out", "out_path", type=click.Path(path_type=Path),
              help="Output Markdown path (default: derived name in cwd).")
@click.option("--quote-limit", type=int, default=90, show_default=True)
@_exit_on_error
def render(input_path: Path, out_path: Path | None, quote_limit: int) -> None:
    """Render a Phase III report JSON to Markdown, as a run's phase 4 does."""
    try:
        report = read_report(input_path)
    except (ValueError, OSError) as exc:  # InvalidInputError and JSONDecodeError included
        raise InvalidInputError(f"cannot load {input_path.name}: {exc}") from exc
    target = out_path or Path(output_filename(report))
    write_report(report, target, quote_limit)
    click.echo(str(target))


if __name__ == "__main__":
    main()
