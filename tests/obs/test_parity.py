"""NullTracer/Tracer API parity, checked by introspection.

Instrumented code is written against one surface and handed either
implementation; a method added to ``Tracer`` without its ``NullTracer``
no-op crashes every un-traced run at that call site.  This test makes the
contract executable: every emission/context method must exist on both
classes with an identical signature, and the only divergences allowed are
the collection-side APIs that make no sense on a tracer that collects
nothing.
"""

import inspect

from repro.obs import NULL_TRACER, NullTracer, Tracer

#: Tracer-only collection/persistence API: reading back records, ring-buffer
#: accounting, and JSONL files.  Call sites only touch these behind an
#: ``if tracer.enabled:`` guard, so NullTracer legitimately lacks them.
TRACER_ONLY = {
    "clear",
    "export_jsonl",
    "iter_jsonl",
    "meta",
    "read_jsonl",
    "read_jsonl_dicts",
    "to_dicts",
    "write_jsonl",
    "emitted",
    "dropped",
}


def _public_methods(cls) -> dict[str, object]:
    return {
        name: fn
        for name, fn in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


def test_every_emission_method_exists_on_both():
    tracer_api = set(_public_methods(Tracer))
    null_api = set(_public_methods(NullTracer))
    assert null_api <= tracer_api, (
        f"NullTracer has methods Tracer lacks: {sorted(null_api - tracer_api)}"
    )
    divergent = tracer_api - null_api
    assert divergent <= TRACER_ONLY, (
        f"Tracer methods missing their NullTracer no-op: "
        f"{sorted(divergent - TRACER_ONLY)}"
    )
    # The allowlist must not rot: every entry still exists on Tracer.
    members = dict(inspect.getmembers(Tracer))
    assert TRACER_ONLY <= set(members), (
        f"stale TRACER_ONLY entries: {sorted(TRACER_ONLY - set(members))}"
    )


def test_shared_methods_have_identical_signatures():
    tracer_api = _public_methods(Tracer)
    for name, null_fn in _public_methods(NullTracer).items():
        assert inspect.signature(null_fn) == inspect.signature(tracer_api[name]), (
            f"signature drift on {name}"
        )


def test_shared_class_attributes():
    # The flags hot paths branch on must exist on both, as plain attributes.
    assert Tracer.enabled is True and NullTracer.enabled is False
    assert NullTracer.sample == 0.0 and NullTracer.verbose is False
    t = Tracer(sample=0.5)
    assert t.sample == 0.5 and t.verbose is False
    assert Tracer(sample=1.0).verbose is True


def test_null_methods_return_the_disabled_values():
    assert NULL_TRACER.now() == 0.0
    assert NULL_TRACER.trace_id("k") == 0
    assert NULL_TRACER.sampled("k") is False
    assert NULL_TRACER.next_span_id() == 0
    assert NULL_TRACER.root_ctx("k") is None
    assert NULL_TRACER.ctx("k") is None
    assert NULL_TRACER.records() == []
    assert len(NULL_TRACER) == 0

