"""Query execution fault tolerance and the multi-layer filtering pipeline."""

import json
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import (
    PARTIAL,
    PERFECT,
    progression_contribution_results,
    progression_core_results,
    progression_target,
    make_record,
    make_result,
)
from noveltycheck import retrieval
from noveltycheck.clients import MockSearchClient
from noveltycheck.errors import InvalidInputError, RetrievalEmptyError
from noveltycheck.extraction import SearchQuery
from noveltycheck.papers import PublicationDate, QualityFlag
from noveltycheck.retrieval import (
    Phase2Result,
    QueryRunner,
    RetryPolicy,
    cross_scope_dedup,
    execute_queries,
    filter_scope,
    summarize_filtering,
)
from noveltycheck.scheduler import Scheduler

# Small pools, so ids and titles collide within and across scopes, and a
# record found by title can carry a better id than the entry it joins.
_PAPER = st.tuples(
    st.sampled_from(["Shared Work", "shared  work.", "Own Work", "Third Work"]),
    st.sampled_from([None, "doi", "arxiv", "openreview", "title-hash"]),
    st.sampled_from(["a", "b", "c"]),
)
_SCOPE = st.lists(_PAPER, max_size=6)

QUERY = SearchQuery(query_id="core_task:primary", text="some query", scope="core_task")

HIT = {
    "title": "A Retrieved Paper",
    "abstract": "About things.",
    "identifiers": {"arxiv_id": "2401.00001"},
    "relevance_score": 0.9,
    "verdict": [{"criterion_type": "topic", "assessment": "support"}],
}


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_query_attempts == 8
        assert policy.initial_delay == 5.0
        assert retrieval.GLOBAL_MAX_RETRIES == 180
        assert policy.concurrency == 1

    @pytest.mark.parametrize("setting, value, message", [
        ("max_query_attempts", 0, "max_query_attempts must be positive"),
        ("max_query_attempts", 2.5, "max_query_attempts must be an integer"),
        ("concurrency", 2.0, "concurrency must be an integer"),
    ], ids=["attempts_zero", "attempts_fraction", "concurrency_float"])
    def test_positive_required(self, setting, value, message):
        with pytest.raises(InvalidInputError, match=message):
            RetryPolicy(**{setting: value})


def execute(queries, search, policy=RetryPolicy(), *, sleep=time.sleep):
    """``execute_queries`` through a new runner on a search lane of ``policy.concurrency``."""
    with Scheduler(policy.concurrency) as lane:
        return execute_queries(queries, QueryRunner(search, policy, lane, sleep=sleep))


class TestExecuteQueries:
    def test_two_failures_then_success_logs_three_attempts(self):
        search = MockSearchClient(
            {"queries": {"some query": {"results": [HIT], "fail_times": 2}}}
        )
        delays = []
        batch = execute(
            [QUERY], search, RetryPolicy(initial_delay=1.0), sleep=delays.append
        )
        assert batch.attempts_by_query["core_task:primary"] == 3
        assert len(batch.results) == 1
        assert not batch.failures
        # fixed backoff: delay grows with the attempt index
        assert delays == [1.0, 2.0]

    def test_exhausted_attempts_skip_query_and_continue(self):
        search = MockSearchClient(
            {
                "queries": {
                    "some query": {"results": [HIT], "fail_times": 99},
                    "other query": {"results": [HIT]},
                }
            }
        )
        other = SearchQuery("core_task:variant1", "other query", "core_task")
        batch = execute([QUERY, other], search, RetryPolicy(initial_delay=0.001),
                        sleep=lambda _: None)
        assert [f.query_id for f in batch.failures] == ["core_task:primary"]
        assert batch.failures[0].attempts == 8
        assert len(batch.results) == 1

    def test_sequential_order_matches_query_order(self):
        fixture = {"queries": {f"q{i}": {"results": [dict(HIT, title=f"P{i}")]} for i in range(12)}}
        queries = [
            SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(12)
        ]
        batch = execute(queries, MockSearchClient(fixture), RetryPolicy())
        assert [r.paper.title for r in batch.results] == [f"P{i}" for i in range(12)]

    def test_all_failed_raises_retrieval_empty(self):
        search = MockSearchClient({"queries": {"some query": {"fail_times": 99}}})
        with pytest.raises(RetrievalEmptyError):
            execute([QUERY], search, RetryPolicy(max_query_attempts=2),
                    sleep=lambda _: None)

    def test_concurrency_produces_same_results(self):
        fixture = {"queries": {f"q{i}": {"results": [dict(HIT, title=f"P{i}")]} for i in range(8)}}
        queries = [
            SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(8)
        ]
        serial = execute(queries, MockSearchClient(fixture), RetryPolicy())
        threaded = execute(
            queries, MockSearchClient(fixture), RetryPolicy(concurrency=4)
        )
        serial_keys = [(r.paper.title, r.paper.canonical_id) for r in serial.results]
        threaded_keys = [(r.paper.title, r.paper.canonical_id) for r in threaded.results]
        assert serial_keys == threaded_keys

    def test_full_text_preprocessed_once_per_distinct_text(self, monkeypatch):
        from noveltycheck import retrieval

        calls = []
        real = retrieval.preprocess_document

        def counting(raw, purpose="extraction"):
            calls.append(raw)
            return real(raw, purpose)

        monkeypatch.setattr(retrieval, "preprocess_document", counting)
        shared = dict(HIT, full_text="Shared body text.\nMore of it.")
        other = dict(HIT, title="Another Paper", full_text="A different body.")
        fixture = {"queries": {f"q{i}": {"results": [shared, other]} for i in range(3)}}
        queries = [
            SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(3)
        ]
        batch = execute(queries, MockSearchClient(fixture), RetryPolicy())
        assert sorted(calls) == sorted([shared["full_text"], other["full_text"]])
        assert len(batch.results) == 6
        assert {r.paper.full_text for r in batch.results} == set(calls)

    def test_hit_date_inferred_from_url(self):
        hit = dict(HIT, url="https://arxiv.org/abs/2401.00001")
        search = MockSearchClient({"queries": {"some query": {"results": [hit]}}})
        batch = execute([QUERY], search, RetryPolicy())
        date = batch.results[0].paper.publication_date
        assert (date.year, date.month) == (2024, 1)

    def test_nan_relevance_hit_dropped(self):
        # the json module reads a bare NaN, so a fixture or a service reply can carry one
        nan_hit = json.loads('{"title": "Unscored Paper", "relevance_score": NaN}')
        search = MockSearchClient({"queries": {"some query": {"results": [nan_hit, HIT]}}})
        batch = execute([QUERY], search, RetryPolicy())
        assert [r.paper.title for r in batch.results] == [HIT["title"]]

    @pytest.mark.parametrize("bad_hit", [
        {"abstract": "A hit with no title."},
        {"title": "Unscored Paper", "relevance_score": None},
        {"title": "Misscored Paper", "relevance_score": "high"},
        {"title": 42},
        {"title": "Misplaced Paper", "url": 5},
        "not an object",
    ])
    def test_malformed_hit_dropped_and_good_hit_kept(self, bad_hit, caplog):
        search = MockSearchClient({"queries": {"some query": {"results": [bad_hit, HIT]}}})
        batch = execute([QUERY], search, RetryPolicy())
        assert [r.paper.title for r in batch.results] == [HIT["title"]]
        assert batch.failures == []
        assert "malformed search hit" in caplog.text

    def test_null_abstract_read_as_empty(self):
        search = MockSearchClient({"queries": {"some query": {"results": [
            dict(HIT, abstract=None),
        ]}}})
        batch = execute([QUERY], search, RetryPolicy())
        assert [r.paper.abstract for r in batch.results] == [""]

    def test_global_retry_budget_caps_total_retries(self, monkeypatch):
        fixture = {
            "queries": {
                "q0": {"results": [HIT], "fail_times": 99},
                "q1": {"results": [HIT]},
            }
        }
        queries = [
            SearchQuery("core_task:q0", "q0", "core_task"),
            SearchQuery("core_task:q1", "q1", "core_task"),
        ]
        monkeypatch.setattr(retrieval, "GLOBAL_MAX_RETRIES", 3)
        policy = RetryPolicy(max_query_attempts=8, initial_delay=0.001)
        batch = execute(queries, MockSearchClient(fixture), policy, sleep=lambda _: None)
        # q0 burns the 3-retry session budget and is abandoned early
        assert batch.failures[0].query_id == "core_task:q0"
        assert batch.failures[0].attempts == 4
        assert len(batch.results) == 1


    def test_started_query_searched_once_and_collected_in_query_order(self):
        fixture = {"queries": {f"q{i}": {"results": [dict(HIT, title=f"P{i}")]} for i in range(3)}}
        queries = [SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(3)]
        search = MockSearchClient(fixture)
        with Scheduler(2) as lane:
            runner = QueryRunner(search, RetryPolicy(), lane)
            runner.start(queries[2:])
            runner.start(queries[2:])
            batch = execute_queries(queries, runner)
        assert sorted(search.calls) == ["q0", "q1", "q2"]
        assert [r.paper.title for r in batch.results] == ["P0", "P1", "P2"]

    def test_same_text_under_another_id_is_its_own_search(self):
        search = MockSearchClient({"queries": {"some query": {"results": [HIT]}}})
        padded = SearchQuery("core_task:variant2", QUERY.text, "core_task")
        batch = execute([QUERY, padded], search)
        assert search.calls == ["some query", "some query"]
        assert batch.attempts_by_query == {"core_task:primary": 1, "core_task:variant2": 1}

    def test_one_retry_budget_across_starts(self, monkeypatch):
        fixture = {"queries": {f"q{i}": {"results": [HIT], "fail_times": 2} for i in range(2)}}
        queries = [SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(2)]
        monkeypatch.setattr(retrieval, "GLOBAL_MAX_RETRIES", 3)
        policy = RetryPolicy(initial_delay=0.001)
        with Scheduler(1) as lane:
            runner = QueryRunner(MockSearchClient(fixture), policy, lane, sleep=lambda _: None)
            runner.start(queries[:1])
            batch = execute_queries(queries, runner)
        # q0 spends two of the three retries, so q1 is abandoned on its second failure
        assert batch.attempts_by_query == {"core_task:q0": 3, "core_task:q1": 2}
        assert [f.query_id for f in batch.failures] == ["core_task:q1"]

    def test_concurrent_starts_search_each_query_once(self):
        fixture = {"queries": {f"q{i}": {"results": [dict(HIT, title=f"P{i}")]} for i in range(20)}}
        queries = [SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(20)]
        search = MockSearchClient(fixture)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Scheduler(4) as lane:
                runner = QueryRunner(search, RetryPolicy(), lane)
                starters = [
                    threading.Thread(target=runner.start, args=(queries[i % 3 :],))
                    for i in range(8)
                ]
                for starter in starters:
                    starter.start()
                for starter in starters:
                    starter.join(10)
                assert not any(starter.is_alive() for starter in starters)
                batch = execute_queries(queries, runner)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(search.calls) == sorted(q.text for q in queries)
        assert [r.paper.title for r in batch.results] == [f"P{i}" for i in range(20)]

    def test_concurrent_retries_draw_the_budget_exactly(self, monkeypatch):
        fixture = {"queries": {f"q{i}": {"results": [HIT], "fail_times": 2} for i in range(20)}}
        queries = [SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(20)]
        search = MockSearchClient(fixture)
        monkeypatch.setattr(retrieval, "GLOBAL_MAX_RETRIES", 25)
        policy = RetryPolicy(initial_delay=0.001, concurrency=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Scheduler(policy.concurrency) as lane:
                batch = execute_queries(queries, QueryRunner(search, policy, lane))
        finally:
            sys.setswitchinterval(interval)
        # 40 retries are wanted and 25 granted, each one more search
        assert sum(a - 1 for a in batch.attempts_by_query.values()) == 25
        assert len(search.calls) == 20 + 25
        assert len(batch.results) + len(batch.failures) == 20

    def test_stopped_runner_makes_no_further_attempt(self):
        search = MockSearchClient({"queries": {"some query": {"results": [HIT], "fail_times": 99}}})
        delays = []
        with Scheduler(1) as lane:
            runner = QueryRunner(search, RetryPolicy(), lane, sleep=delays.append)
            runner.stop()
            assert runner.collect([QUERY]) == [(QUERY, None, 0, "search stopped")]
        assert search.calls == [] and delays == []

    def test_stop_ends_a_running_backoff_wait_at_once(self):
        search = MockSearchClient({"queries": {"some query": {"results": [HIT], "fail_times": 99}}})
        with Scheduler(2) as lane:
            runner = QueryRunner(search, RetryPolicy(max_query_attempts=2, initial_delay=2.0), lane)
            runner.start([QUERY])
            deadline = time.monotonic() + 10
            while not search.calls and time.monotonic() < deadline:
                time.sleep(0.001)
            assert search.calls, "the first attempt never ran"
            stopped_at = time.monotonic()
            runner.stop()
            with pytest.raises(RetrievalEmptyError):
                execute_queries([QUERY], runner)
        assert time.monotonic() - stopped_at < 1.0
        assert search.calls == ["some query"]

    def test_search_in_backoff_holds_no_lane_worker(self):
        fixture = {"queries": {
            f"q{i}": {"results": [dict(HIT, title=f"P{i}")], "fail_times": int(i < 2)}
            for i in range(3)
        }}
        queries = [SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(3)]
        third_searched, released = threading.Event(), threading.Event()

        class Watched(MockSearchClient):
            def search(self, query):
                if query == "q2":
                    third_searched.set()
                return super().search(query)

        with Scheduler(2) as lane:
            runner = QueryRunner(
                Watched(fixture), RetryPolicy(), lane, sleep=lambda _: released.wait(10)
            )
            try:
                runner.start(queries)
                # both workers' queries are waiting out a backoff, and the third still runs
                ran_during_backoffs = third_searched.wait(5)
            finally:
                released.set()
            batch = execute_queries(queries, runner)
        assert ran_during_backoffs
        assert batch.attempts_by_query == {"core_task:q0": 2, "core_task:q1": 2, "core_task:q2": 1}
        assert [r.paper.title for r in batch.results] == ["P0", "P1", "P2"]

    def test_due_retry_runs_before_queued_first_tries(self):
        fixture = {"queries": {
            f"q{i}": {"results": [dict(HIT, title=f"P{i}")], "fail_times": int(i == 0)}
            for i in range(5)
        }}
        queries = [SearchQuery(f"core_task:q{i}", f"q{i}", "core_task") for i in range(5)]
        gates = {"q1": threading.Event(), "q2": threading.Event()}
        all_queued, q2_searched = threading.Event(), threading.Event()
        order = []

        class Gated(MockSearchClient):
            def search(self, query):
                order.append(query)
                if order == ["q0"]:  # fail only once every first try is queued
                    all_queued.wait(10)
                if query == "q2":
                    q2_searched.set()
                if query in gates:
                    gates[query].wait(10)
                return super().search(query)

        def backoffs_running():
            return any(t.name == "lane-wait" for t in threading.enumerate())

        with Scheduler(2) as lane:
            runner = QueryRunner(Gated(fixture), RetryPolicy(), lane, sleep=lambda _: None)
            try:
                runner.start(queries)
                all_queued.set()
                # q1 and q2 hold both workers, q3 and q4 are queued, and q0's retry gets due
                assert q2_searched.wait(5)
                deadline = time.monotonic() + 5
                while backoffs_running() and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert not backoffs_running()
                gates["q1"].set()
            finally:
                for gate in gates.values():
                    gate.set()
            batch = execute_queries(queries, runner)
        retried_at = order.index("q0", 1)
        assert retried_at < order.index("q3"), order
        assert batch.attempts_by_query["core_task:q0"] == 2
        assert [r.paper.title for r in batch.results] == [f"P{i}" for i in range(5)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_backoff_wait_settles_the_outcome(self, workers):
        search = MockSearchClient({"queries": {"some query": {"results": [HIT], "fail_times": 1}}})

        def broken_sleep(_):
            raise RuntimeError("backoff broke")

        collected = {}

        def collect(runner):
            try:
                collected["outcomes"] = runner.collect([QUERY])
            except Exception as exc:
                collected["error"] = exc

        with Scheduler(workers) as lane:
            runner = QueryRunner(search, RetryPolicy(), lane, sleep=broken_sleep)
            collector = threading.Thread(target=collect, args=(runner,), daemon=True)
            collector.start()
            collector.join(3)
        assert not collector.is_alive(), "the query's outcome never settled"
        assert isinstance(collected.get("error"), RuntimeError)
        assert str(collected["error"]) == "backoff broke"
        assert search.calls == ["some query"]

    def test_unexpected_error_raised_at_collection(self):
        class Broken(MockSearchClient):
            def search(self, query):
                raise RuntimeError("client bug")

        with Scheduler(1) as lane:
            runner = QueryRunner(Broken({}), RetryPolicy(), lane)
            runner.start([QUERY])
            with pytest.raises(RuntimeError, match="client bug"):
                execute_queries([QUERY], runner)


class TestFilterScope:
    def test_core_filtering_progression(self):
        outcome = filter_scope(progression_core_results(), "core_task", 50, progression_target())
        stats = outcome.stats
        assert (stats.raw, stats.after_quality, stats.after_dedup, stats.selected) == (
            774, 210, 163, 50,
        )

    def test_contribution_filtering_progression(self):
        target = progression_target()
        raw = perfect = selected = 0
        for cid, results in progression_contribution_results().items():
            outcome = filter_scope(results, cid, 10, target)
            raw += outcome.stats.raw
            perfect += outcome.stats.after_quality
            selected += len(outcome.selected)
        assert (raw, perfect, selected) == (1554, 336, 30)

    def test_self_reference_removed_by_title(self):
        target = progression_target()
        results = [
            make_result(target.title, 0.99),
            make_result("Different Paper", 0.5),
        ]
        outcome = filter_scope(results, "core_task", 50, target)
        assert [p.title for p in outcome.selected] == ["Different Paper"]

    def test_self_reference_removed_by_url(self):
        target = make_record("The Target", url="https://example.org/paper")
        results = [make_result("Renamed Version", 0.9, url="https://example.org/paper")]
        outcome = filter_scope(results, "core_task", 50, target)
        assert outcome.selected == []

    def test_partial_flags_logged_never_ranked(self):
        results = [
            make_result("Perfect One", 0.9),
            make_result("Partial One", 0.99, verdict=PARTIAL),
        ]
        outcome = filter_scope(results, "core_task", 50, progression_target())
        assert [p.title for p in outcome.selected] == ["Perfect One"]
        assert any("partial flag" in d for d in outcome.diagnostics)

    def test_temporal_filter_unknown_dates_pass(self):
        target = progression_target()  # dated 2025-09
        late = make_result("Late Paper", 0.9, date=PublicationDate(2026, 1))
        unknown = make_result("Undated Paper", 0.8)
        outcome = filter_scope([late, unknown], "core_task", 50, target)
        assert [p.title for p in outcome.selected] == ["Undated Paper"]

    def test_dedup_keeps_highest_relevance_instance(self):
        results = [
            make_result("Twice Retrieved", 0.4),
            make_result("Twice Retrieved", 0.8),
        ]
        outcome = filter_scope(results, "core_task", 50, progression_target())
        assert len(outcome.selected) == 1
        assert outcome.selected[0].relevance_score == 0.8

    def test_ranked_by_relevance_with_id_tiebreak(self):
        results = [
            make_result("Paper C", 0.5),
            make_result("Paper A", 0.5),
            make_result("Paper B", 0.9),
        ]
        outcome = filter_scope(results, "core_task", 2, progression_target())
        assert [p.title for p in outcome.selected][0] == "Paper B"
        assert len(outcome.selected) == 2
        # the 0.5 tie breaks on canonical id text, deterministically
        tied = sorted(
            [r.paper for r in results if r.paper.relevance_score == 0.5],
            key=lambda p: p.canonical_id,
        )
        assert outcome.selected[1].canonical_id == tied[0].canonical_id

    def test_post_filter_invariants(self):
        outcome = filter_scope(progression_core_results(), "core_task", 50, progression_target())
        selected = outcome.selected
        assert len(selected) <= 50
        assert all(p.quality_flag is QualityFlag.PERFECT for p in selected)
        ids = [p.canonical_id for p in selected]
        assert len(set(ids)) == len(ids)
        scores = [p.relevance_score for p in selected]
        assert scores == sorted(scores, reverse=True)


class TestCrossScopeDedup:
    def test_unified_pool_after_cross_scope_dedup(self):
        target = progression_target()
        core = filter_scope(progression_core_results(), "core_task", 50, target)
        per = {
            cid: filter_scope(results, cid, 10, target)
            for cid, results in progression_contribution_results().items()
        }
        candidate_set = cross_scope_dedup(
            core.selected, {cid: outcome.selected for cid, outcome in per.items()}
        )
        stats = {cid: outcome.stats for cid, outcome in per.items()}
        funnel = summarize_filtering(Phase2Result(candidate_set, core.stats, stats, []))
        assert funnel["combined"] == 80
        assert funnel["unified"] == 73
        assert funnel["cross_scope_removed_pct"] == 8.8

    def test_disjoint_lists_concatenate(self):
        core = [make_record(f"Core {i}", 0.9) for i in range(50)]
        per = {"contribution_1": [make_record(f"Contrib {i}", 0.8) for i in range(30)]}
        candidate_set = cross_scope_dedup(core, per)
        assert len(candidate_set.unified) == 80

    def test_higher_priority_identifier_kept(self):
        core = [make_record("Shared Work", 0.9, scheme="doi", value="10.5/zz")]
        contrib = make_record("Shared Work", 0.8, scheme="arxiv", value="2401.9")
        candidate_set = cross_scope_dedup(core, {"contribution_1": [contrib]})
        assert len(candidate_set.unified) == 1
        assert candidate_set.unified[0].canonical_id == "doi:10.5/zz"
        assert candidate_set.core_task == ["doi:10.5/zz"]
        assert candidate_set.per_contribution == {"contribution_1": ["doi:10.5/zz"]}

    def test_upgrade_when_better_id_arrives_second(self):
        core = [make_record("Shared Work", 0.9, scheme="arxiv", value="2401.9")]
        contrib = make_record("Shared Work", 0.8, scheme="doi", value="10.5/zz")
        candidate_set = cross_scope_dedup(core, {"contribution_1": [contrib]})
        assert candidate_set.unified[0].canonical_id == "doi:10.5/zz"
        # every scope names the merged paper by its upgraded id, the core
        # scope included although its own record arrived with the arXiv id
        assert candidate_set.core_task == ["doi:10.5/zz"]
        assert candidate_set.per_contribution == {"contribution_1": ["doi:10.5/zz"]}

    def test_later_duplicates_fill_only_missing_fields(self):
        core = [make_record("Shared Work", 0.9, abstract="The core abstract.")]
        before = replace(core[0])
        first = make_record("Shared Work", 0.8, url="https://a.example/1", date=PublicationDate(2023),
                            full_text="The first full text.")
        second = make_record("shared  work.", 0.7, url="https://b.example/2",
                             date=PublicationDate(2021), full_text="The second full text.")
        candidate_set = cross_scope_dedup(core, {"contribution_1": [first], "contribution_2": [second]})
        [unified] = candidate_set.unified
        # the core record's own fields, and the first later record's where the core's were missing
        assert (unified.canonical_id, unified.title, unified.abstract, unified.relevance_score) == (
            before.canonical_id, "Shared Work", "The core abstract.", 0.9,
        )
        assert unified.url == "https://a.example/1"
        assert unified.publication_date == PublicationDate(2023)
        assert unified.full_text == "The first full text."
        # the merge made a new record: the core record is unchanged
        assert core[0] == before
        assert candidate_set.per_contribution == {
            "contribution_1": [before.canonical_id], "contribution_2": [before.canonical_id],
        }

    @given(core=_SCOPE, per=st.lists(_SCOPE, max_size=3))
    def test_unified_ids_pairwise_distinct(self, core, per):
        """Phase III runs one similarity check per unified id, so no id repeats."""

        def records(specs):
            return [make_record(t, scheme=scheme, value=value) for t, scheme, value in specs]

        core_records = records(core)
        per_records = {f"contribution_{i}": records(s) for i, s in enumerate(per, start=1)}
        inputs = [*core_records, *(r for rs in per_records.values() for r in rs)]
        copies = [replace(record) for record in inputs]
        candidate_set = cross_scope_dedup(core_records, per_records)
        ids = [paper.canonical_id for paper in candidate_set.unified]
        assert len(ids) == len(set(ids))
        # each scope lists unified ids only, none of them twice
        for scope in (candidate_set.core_task, *candidate_set.per_contribution.values()):
            assert set(scope) <= set(ids)
            assert len(scope) == len(set(scope))
        # dedup changes no input record
        assert inputs == copies
        # the core pool alone is the final pool's head unless a contribution record joins it
        core_keys = {key for r in core_records for key in (r.canonical_id, r.title_hash)}
        if not any(
            {r.canonical_id, r.title_hash} & core_keys for rs in per_records.values() for r in rs
        ):
            core_pool = cross_scope_dedup(core_records, {}).unified
            assert candidate_set.unified[: len(core_pool)] == core_pool

    def test_per_scope_lists_preserved(self):
        core = [make_record("Shared Work", 0.9)]
        contrib = [make_record("Shared Work", 0.8), make_record("Own Work", 0.7)]
        candidate_set = cross_scope_dedup(core, {"contribution_1": contrib})
        assert len(candidate_set.per_contribution["contribution_1"]) == 2
        assert len(candidate_set.unified) == 2

    def test_unified_bound(self):
        core = [make_record(f"P{i}", 0.9) for i in range(5)]
        per = {"c1": [make_record(f"P{i}", 0.8) for i in range(3, 8)]}
        candidate_set = cross_scope_dedup(core, per)
        assert len(candidate_set.unified) == 8  # 5 + 5 - 2 shared
        assert len(candidate_set.unified) <= len(core) + 5
