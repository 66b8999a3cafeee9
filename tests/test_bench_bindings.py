"""The benchmark's tracer must find every binding it measures.

`bench/spans.py` wraps public names in the modules where their callers look
them up. A refactor that renames or moves one of them leaves the name
unwrapped, and its layer silently reads zero in every traced run.
"""

import os

# Bindings that were already gone from the package when this guard was
# written; only these may stay unwrapped.
STALE = {"icebudget.federation.merge_rerank", "icebudget.oracle.merge_rerank",
         "icebudget.federation.social_learning_infer",
         "icebudget.federation.answer_mock", "icebudget.federation.answer_http"}


def test_tracer_wraps_every_live_binding(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "bench"))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = {entry["binding"] for entry in tracer.unwrapped}
    finally:
        tracer.uninstall()
    assert unwrapped <= STALE
