"""Seeded generator of a labelled text corpus for the `text-wide` workload.

Writes `train.jsonl` and `eval.jsonl` in the format `icebudget` reads: a
`{"label_space": [...]}` header line, then one `{"text", "label"}` record
per line. Every class has its own pool of pseudo-words; a sentence mixes
words from its class pool with words from a shared pool, so labels are
learnable from character n-grams but not trivially so.

Only `random.Random.random()` is drawn from, whose stream is fixed across
Python versions, so one seed gives byte-identical files.
"""

from __future__ import annotations

import json
import os
import random

LABELS = ("terrible", "bad", "neutral", "good", "great")
SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "pe", "sa",
             "do", "fu", "gi", "ha", "ju", "be", "co", "wi", "xe", "yo")
SHARED_WORDS = 400
CLASS_WORDS = 60
CLASS_WORD_SHARE = 0.4
MIN_WORDS, MAX_WORDS = 14, 28


def _pick(rng: random.Random, items):
    return items[int(rng.random() * len(items))]


def _word(rng: random.Random) -> str:
    return "".join(_pick(rng, SYLLABLES) for _ in range(2 + int(rng.random() * 3)))


def _vocabulary(rng: random.Random, size: int, taken: set) -> list[str]:
    words = []
    while len(words) < size:
        word = _word(rng)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _sentence(rng: random.Random, class_pool, shared_pool) -> str:
    length = MIN_WORDS + int(rng.random() * (MAX_WORDS - MIN_WORDS + 1))
    words = []
    for _ in range(length):
        pool = class_pool if rng.random() < CLASS_WORD_SHARE else shared_pool
        # squaring skews draws toward the front of the pool (Zipf-like)
        words.append(pool[int(rng.random() ** 2 * len(pool))])
    return " ".join(words) + "."


def generate(seed: int, n_train: int, n_eval: int):
    """(train_lines, eval_lines) of JSONL text, labels balanced round-robin."""
    rng = random.Random(seed)
    taken: set = set()
    shared = _vocabulary(rng, SHARED_WORDS, taken)
    pools = [_vocabulary(rng, CLASS_WORDS, taken) for _ in LABELS]
    header = json.dumps({"label_space": list(LABELS)})

    def split(n):
        lines = [header]
        for i in range(n):
            label = i % len(LABELS)
            text = _sentence(rng, pools[label], shared)
            lines.append(json.dumps({"label": label, "text": text},
                                    sort_keys=True))
        return lines

    return split(n_train), split(n_eval)


def write_corpus(seed: int, out_dir: str, n_train: int, n_eval: int):
    """Write train.jsonl and eval.jsonl under out_dir; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, lines in zip(("train", "eval"), generate(seed, n_train, n_eval)):
        path = os.path.join(out_dir, f"{name}.jsonl")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        paths.append(path)
    return tuple(paths)
