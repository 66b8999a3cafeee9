import numpy as np
import pytest

from icebudget.corpus import Example, LabelSpace
from icebudget.errors import (BackendError, DecodeError, ValidationError)
from icebudget.config import BackendSpec
from icebudget.inference import (MOCK_VOTE_EPSILON, HttpBackend,
                                 MockVoteBackend, answer_mock, build_prompt,
                                 decode_label, make_backend, paraphrase)


class TestMockVote:
    def test_hand_computed_weights(self):
        # label 0 at distance 1 -> weight ~1.0; label 1 at 0.25 -> ~4.0
        assert answer_mock([(0, 1.0), (1, 0.25)]) == 1

    def test_votes_accumulate_per_label(self):
        # two moderate votes for 0 outweigh one stronger vote for 1
        votes = [(0, 0.5), (0, 0.5), (1, 0.3)]
        w0 = 2 / (MOCK_VOTE_EPSILON + 0.5)
        w1 = 1 / (MOCK_VOTE_EPSILON + 0.3)
        assert w0 > w1
        assert answer_mock(votes) == 0

    def test_tie_goes_to_lowest_label(self):
        assert answer_mock([(2, 0.4), (1, 0.4)]) == 1

    def test_no_ices_returns_zero(self):
        assert answer_mock([]) == 0

    def test_zero_distance_dominates(self):
        assert answer_mock([(3, 0.0), (0, 0.01), (0, 0.01)]) == 3

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            answer_mock([(0, -0.1)])


class TestDecodeLabel:
    labels = LabelSpace(3, ("negative", "neutral", "positive"))

    def test_earliest_occurrence_wins(self):
        assert decode_label("positive, maybe negative", self.labels) == 2

    def test_case_insensitive(self):
        assert decode_label(" NEUTRAL", self.labels) == 1

    def test_position_tie_lower_index(self):
        labels = LabelSpace(2, ("goodness", "good"))
        # both match at position 0; label 0 wins
        assert decode_label("goodness me", labels) == 0

    def test_no_match_raises(self):
        with pytest.raises(DecodeError) as exc_info:
            decode_label("gibberish", self.labels)
        assert exc_info.value.raw_completion == "gibberish"


class TestBuildPrompt:
    def test_build_prompt_order_and_rendering(self):
        labels = LabelSpace(2, ("no", "yes"))
        votes = []
        prompt = build_prompt([(Example(1, "first", 0), 0.5),
                               (Example(2, "second", 1), 0.25)], "the query",
                              labels, votes)
        assert prompt == "first\nno\n\nsecond\nyes\n\nthe query\n"
        assert votes == [(0, 0.5), (1, 0.25)]

    def test_no_ices_is_the_query(self):
        assert build_prompt([], "q", LabelSpace(1, ("x",)), []) == "q\n"

    def test_placeholders_in_texts(self):
        # {label} in a text takes the verbalizer; nothing else is replaced
        labels = LabelSpace(2, ("a {text}", "b {label}"))
        prompt = build_prompt([(Example(0, "{label}{text}", 1), 0.0),
                               (Example(1, "{lab", 0), 0.0)], "{label}",
                              labels, [])
        assert prompt == ("b {label}{text}\nb {label}\n\n{lab\na {text}"
                          "\n\n{label}\n")

    def test_bad_ice_label_rejected(self):
        labels = LabelSpace(1, ("x",))
        with pytest.raises(ValidationError):
            build_prompt([(Example(0, "t", 5), 0.0)], "q", labels, [])


def _http_backend(url, **fields):
    return HttpBackend(BackendSpec(type="http", endpoint=url, **fields))


class TestBackends:
    def test_mock_answer_is_the_vote(self):
        votes = [(0, 0.5), (0, 0.5), (1, 0.3)]
        labels = LabelSpace(2, ("a", "b"))
        assert MockVoteBackend().answer("ignored", votes, labels) == 0
        assert MockVoteBackend().answer("ignored", [], labels) == 0

    def test_make_backend_from_spec(self):
        assert make_backend(BackendSpec()) == MockVoteBackend()
        spec = BackendSpec(type="http", endpoint="http://host:1/v1",
                           model="m", auth_env="KEY", timeout=2.5,
                           max_retries=1, max_tokens=5)
        assert make_backend(spec) == HttpBackend(spec)


class TestHttpBackend:
    def test_malformed_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            BackendSpec(type="http", endpoint="ftp://nope", model="m")

    def test_answer_roundtrip(self, stub_server):
        url, handler = stub_server
        backend = _http_backend(url, model="test-model", timeout=5,
                                max_retries=0)
        labels = LabelSpace(2, ("negative", "positive"))
        assert backend.answer("a prompt", [], labels) == 1
        path, body = handler.requests[0]
        assert path == "/completions"
        assert body["model"] == "test-model"
        assert body["temperature"] == 0
        assert body["prompt"] == "a prompt"

    def test_retry_then_success(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, {}), (200, {"choices": [{"text": "negative"}]})]
        backend = _http_backend(url, model="m", timeout=5, max_retries=2)
        labels = LabelSpace(2, ("negative", "positive"))
        assert backend.answer("p", [], labels) == 0
        assert len(handler.requests) == 2

    def test_exhausted_retries_raise(self, stub_server):
        url, handler = stub_server
        handler.responses = [(503, {}), (503, {}), (503, {})]
        backend = _http_backend(url, model="m", timeout=5, max_retries=2)
        with pytest.raises(BackendError):
            backend.answer("p", [], LabelSpace(1, ("x",)))

    def test_bad_response_shape(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, {"unexpected": True})]
        backend = _http_backend(url, model="m", timeout=5, max_retries=0)
        with pytest.raises(BackendError):
            backend.answer("p", [], LabelSpace(1, ("x",)))


class TestParaphrase:
    def test_mock_backend_is_identity(self):
        assert paraphrase("keep me", MockVoteBackend()) == "keep me"

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            paraphrase("", MockVoteBackend())

    def test_http_trims_at_first_newline(self, stub_server):
        url, handler = stub_server
        handler.responses = [
            (200, {"choices": [{"text": "  A rewording. \nPlease paraphrase"}]})]
        backend = _http_backend(url, model="m", timeout=5, max_retries=0)
        assert paraphrase("original", backend) == "A rewording."
        _, body = handler.requests[0]
        assert 'original' in body["prompt"]
        assert "{text}" not in body["prompt"]
