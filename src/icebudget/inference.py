"""Prompt construction, answering backends, and the paraphrase pass.

`build_prompt` renders a prompt's ICEs and collects their votes in one pass.
Each ICE is its label's two pieces of the template's `example_format`
around its text, with {label} filled in once per template and label space;
an ICE whose text holds {label}, or a template whose pieces could form one
across the text, renders through the two replaces the pieces stand for.

Two backends: a deterministic similarity-weighted vote for self-contained
runs, and an OpenAI-style completions endpoint for real LLM answering. Each
answers for itself through `answer(prompt, votes, labels) -> label index`,
where `votes` are the prompt's ICEs as (label, distance) pairs, and
paraphrases through `paraphrase(text, template)`. Inside a
`with backend.connection():` block the HTTP backend posts every
completion through one `requests.Session`, which keeps its connection
alive, and closes it when the block ends; outside one, each completion
opens its own connection. Labels are decoded from generated text by
case-insensitive verbalizer match.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .config import BackendSpec
from .corpus import LabelSpace
from .errors import BackendError, DecodeError, ValidationError

MOCK_VOTE_EPSILON = 1e-6

PARAPHRASE_FEW_SHOT = (
    'Please paraphrase the original sentence. Original sentence: "a stirring , '
    'funny and finally transporting re-imagining of beauty and the beast and '
    '1930s horror films" Paraphrased sentence: A captivating, humorous, and '
    "ultimately uplifting reinterpretation of Beauty and the Beast combined "
    "with 1930s horror films. \n"
    "Please paraphrase the original sentence. Original sentence: \"jonathan "
    "parker 's bartleby should have been the be-all-end-all of the "
    'modern-office anomie films" Paraphrased sentence: Jonathan Parker\'s '
    '"Bartleby" had the potential to be the definitive film capturing the '
    "sense of alienation in modern office settings. \n"
    'Please paraphrase the original sentence. Original sentence: "a fan film '
    'that for the uninitiated plays better on video with the sound turned '
    'down" Paraphrased sentence: A fan film that, for those not familiar with '
    "the source material, is more enjoyable when watched with the sound "
    "turned off. \n"
    'Please paraphrase the original sentence. Original sentence: "apparently '
    'reassembled from the cutting-room floor of any given daytime soap" '
    "Paraphrased sentence: It appears to be pieced together from the outtakes "
    "of any given daytime soap opera. \n"
    'Please paraphrase the original sentence. Original sentence: "{text}" '
    "Paraphrased sentence:"
)


@dataclass(frozen=True)
class PromptTemplate:
    instruction: str = ""
    example_format: str = "{text}\n{label}"
    query_format: str = "{text}\n"
    joiner: str = "\n\n"

    def __post_init__(self):
        for name, fmt, placeholders in (
            ("example_format", self.example_format, ("{text}", "{label}")),
            ("query_format", self.query_format, ("{text}",)),
        ):
            for ph in placeholders:
                if fmt.count(ph) != 1:
                    raise ValidationError(
                        f"{name} must contain {ph} exactly once")


@dataclass(frozen=True)
class MockVoteBackend:
    """Distance-weighted vote over the prompt's in-context examples."""

    def answer(self, prompt: str, votes, labels: LabelSpace) -> int:
        return answer_mock(votes)

    def paraphrase(self, text: str, template: str) -> str:
        return text

    def connection(self):
        return contextlib.nullcontext()


@dataclass
class HttpBackend:
    """Completions endpoint described by a validated `type: http` spec."""

    spec: BackendSpec
    # the session of the open `connection()` block, if any
    _session: object = field(default=None, init=False, repr=False,
                             compare=False)

    def answer(self, prompt: str, votes, labels: LabelSpace) -> int:
        return decode_label(
            _post_completion(prompt, self.spec, self._session), labels)

    def paraphrase(self, text: str, template: str) -> str:
        completion = _post_completion(template.replace("{text}", text),
                                      self.spec, self._session)
        return completion.strip().split("\n", 1)[0].strip()

    @contextlib.contextmanager
    def connection(self):
        """Post every completion of the block through one session, closed
        when the block ends."""
        import requests  # loaded by the one stage that posts
        with requests.Session() as session:
            self._session = session
            try:
                yield
            finally:
                self._session = None


def make_backend(spec: BackendSpec):
    """The backend a config's `backend` section describes."""
    return HttpBackend(spec) if spec.type == "http" else MockVoteBackend()


def build_prompt(ices, query_text: str, template: PromptTemplate,
                 labels: LabelSpace, votes: list) -> str:
    """The instruction if any, each ICE rendered in the given order, then
    the rendered query, joined by the template's joiner. `ices` are
    (example, distance) pairs; callers decide their order. Each ICE's
    (label, distance) is appended to `votes` in the same pass. An ICE
    renders as its label's `_example_pieces` around its text, or through
    the two replaces wherever those would differ."""
    pieces = _example_pieces(template.example_format, labels.verbalizers)
    parts = [template.instruction] if template.instruction else []
    for example, distance in ices:
        label, text = example.label, example.text
        if not 0 <= label < labels.count:
            raise ValidationError(f"ICE label {label} outside label space")
        if pieces is None or "{label}" in text:
            parts.append(template.example_format
                         .replace("{text}", text)
                         .replace("{label}", labels.verbalizers[label]))
        else:
            pre, post = pieces[label]
            parts.append(pre + text + post)
        votes.append((label, distance))
    parts.append(template.query_format.replace("{text}", query_text))
    return template.joiner.join(parts)


@lru_cache(maxsize=16)
def _example_pieces(example_format: str, verbalizers: tuple[str, ...]):
    """Per label index, the text of `example_format` before and after its
    {text}, each with {label} replaced by the label's verbalizer; None when
    the format could form a {label} across a text, i.e. the part before
    {text} ends in a proper prefix of "{label}" or the part after it starts
    with a proper suffix. "{label}" cannot overlap itself, so for a text
    without one, the replaces find exactly the {label}s of the two pieces."""
    before, after = example_format.split("{text}")
    if any(before.endswith("{label}"[:i]) or after.startswith("{label}"[i:])
           for i in range(1, len("{label}"))):
        return None
    return tuple((before.replace("{label}", v), after.replace("{label}", v))
                 for v in verbalizers)


def answer_mock(votes) -> int:
    """Similarity-weighted vote over (label, distance) pairs: each ICE votes
    for its label with weight 1/(eps + distance). Ties go to the lowest label
    index; no ICEs -> 0."""
    if not votes:
        return 0
    totals: dict[int, float] = {}
    for label, dist in votes:
        if dist < 0:
            raise ValidationError("distance must be nonnegative")
        totals[label] = totals.get(label, 0.0) + 1.0 / (MOCK_VOTE_EPSILON + dist)
    best = max(totals.items(), key=lambda item: (item[1], -item[0]))
    return best[0]


def decode_label(completion: str, labels: LabelSpace) -> int:
    """First verbalizer occurrence (case-insensitive) in the generated text;
    position ties go to the lower label index."""
    lowered = completion.lower()
    best_pos, best_label = None, None
    for idx, verbalizer in enumerate(labels.verbalizers):
        pos = lowered.find(verbalizer.lower())
        if pos >= 0 and (best_pos is None or pos < best_pos):
            best_pos, best_label = pos, idx
    if best_label is None:
        raise DecodeError("completion matched no verbalizer",
                          raw_completion=completion)
    return best_label


def _post_completion(prompt: str, spec: BackendSpec, session=None) -> str:
    """The completion of `prompt`, posted through `session`, or through a
    connection of its own without one."""
    import requests  # loaded by the one stage that posts, not by every import
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(spec.auth_env, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = {"model": spec.model, "prompt": prompt,
            "max_tokens": spec.max_tokens, "temperature": 0}
    url = spec.endpoint.rstrip("/") + "/completions"
    last_error = None
    for attempt in range(spec.max_retries + 1):
        try:
            resp = (session or requests).post(url, json=body, headers=headers,
                                              timeout=spec.timeout)
            if resp.status_code == 200:
                payload = resp.json()
                try:
                    return payload["choices"][0]["text"]
                except (KeyError, IndexError, TypeError) as exc:
                    raise BackendError(
                        f"unexpected completion response shape: {exc}") from exc
            last_error = BackendError(
                f"completion request failed with HTTP {resp.status_code}")
        except requests.RequestException as exc:
            last_error = BackendError(f"transport failure: {exc}")
        if attempt < spec.max_retries:
            time.sleep(min(2.0 ** attempt * 0.5, 8.0))
    raise last_error


def paraphrase(text: str, backend, template: str = PARAPHRASE_FEW_SHOT) -> str:
    """Few-shot paraphrase through the backend's `paraphrase(text, template)`:
    the mock backend is the identity, the HTTP backend trims its reply at the
    first newline."""
    if not text:
        raise ValidationError("cannot paraphrase empty text")
    return backend.paraphrase(text, template)
