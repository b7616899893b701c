"""The HTTP model and search clients against a local server: what they send, and how
each reply ends."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from noveltycheck.clients import HttpLlmClient, HttpSearchClient
from noveltycheck.errors import LlmError, SearchError

CHAT_REPLY = {"choices": [{"message": {"role": "assistant", "content": "a reply"}}]}
SEARCH_REPLY = {"results": [{"title": "A Paper", "abstract": "About it.", "relevance_score": 0.5}]}


class LocalServer:
    """An HTTP server on 127.0.0.1 that records each POST and answers with ``reply``."""

    def __init__(self):
        self.requests = []
        self.reply = (200, b"{}")
        recorded = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                recorded.requests.append({
                    "path": self.path,
                    "content_type": self.headers.get("Content-Type"),
                    "authorization": self.headers.get("Authorization"),
                    "body": json.loads(body),
                })
                status, payload = recorded.reply
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_port}"

    def answer(self, status, payload):
        self.reply = (status, payload if isinstance(payload, bytes) else json.dumps(payload).encode())


@pytest.fixture
def server(monkeypatch):
    # a proxy set in the environment must not carry these calls off the host
    for var in ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy", "ALL_PROXY", "all_proxy"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    local = LocalServer()
    thread = threading.Thread(target=local.httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield local
    local.httpd.shutdown()
    local.httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


FAILURES = [(500, {"error": "overloaded"}), (200, b"<html>not json</html>")]


class TestHttpLlmClient:
    @pytest.mark.parametrize("api_key", [None, "secret"])
    def test_request_and_good_reply(self, server, api_key):
        server.answer(200, CHAT_REPLY)
        client = HttpLlmClient(server.url + "/v1/", "some-model", api_key, timeout=10)
        assert client.complete("the system", "the user", temperature=0.3) == "a reply"
        [request] = server.requests
        assert request == {
            "path": "/v1/chat/completions",
            "content_type": "application/json",
            "authorization": "Bearer secret" if api_key else None,
            "body": {
                "model": "some-model",
                "temperature": 0.3,
                "messages": [
                    {"role": "system", "content": "the system"},
                    {"role": "user", "content": "the user"},
                ],
            },
        }

    @pytest.mark.parametrize("status, payload", [
        *FAILURES,
        (200, {"id": "no choices"}),
        (200, {"choices": [{"message": {"content": None}}]}),
        (200, {"choices": [{"message": {"content": [{"type": "text", "text": "a reply"}]}}]}),
    ], ids=["http-500", "not-json", "no-choices", "null-content", "list-content"])
    def test_failure_is_an_llm_error(self, server, status, payload):
        server.answer(status, payload)
        with pytest.raises(LlmError, match="llm endpoint failure"):
            HttpLlmClient(server.url, "some-model", timeout=10).complete("s", "u")


class TestHttpSearchClient:
    @pytest.mark.parametrize("api_key", [None, "secret"])
    def test_request_and_good_reply(self, server, api_key):
        server.answer(200, SEARCH_REPLY)
        hits = HttpSearchClient(server.url + "/search", api_key, timeout=10).search("a query")
        assert [(h.title, h.abstract, h.relevance_score) for h in hits] == [
            ("A Paper", "About it.", 0.5)
        ]
        [request] = server.requests
        assert request == {
            "path": "/search",
            "content_type": "application/json",
            "authorization": "Bearer secret" if api_key else None,
            "body": {"query": "a query"},
        }

    @pytest.mark.parametrize("status, payload", FAILURES, ids=["http-500", "not-json"])
    def test_failure_is_a_search_error(self, server, status, payload):
        server.answer(status, payload)
        with pytest.raises(SearchError, match="search endpoint failure"):
            HttpSearchClient(server.url, timeout=10).search("a query")

    def test_reply_without_results_has_no_hits(self, server):
        server.answer(200, {"total": 0})
        assert HttpSearchClient(server.url, timeout=10).search("a query") == []
