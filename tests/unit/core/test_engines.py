"""Unit tests for the engine registry (repro.core.engines)."""

import pytest

from repro.attributes import BasisEncoding, parse_attribute as p
from repro.core.engines import (
    Engine,
    available_engines,
    get_default_engine,
    get_engine,
    register_engine,
    set_default_engine,
)


@pytest.fixture()
def encoding():
    return BasisEncoding(p("R(A, B, C)"))


def _masks(encoding, *texts):
    from repro.dependencies import parse_dependency

    pairs = []
    for text in texts:
        dependency = parse_dependency(text, encoding.root)
        pairs.append((encoding.encode(dependency.lhs),
                      encoding.encode(dependency.rhs)))
    return pairs


class TestRegistry:
    def test_builtin_engines_registered(self):
        names = available_engines()
        assert {"worklist", "naive", "reference"} <= set(names)

    def test_default_is_worklist(self):
        assert get_engine(None).name == "worklist"
        assert get_default_engine().name == "worklist"

    def test_unknown_name_error_message(self):
        with pytest.raises(ValueError) as info:
            get_engine("quantum")
        assert "unknown kernel 'quantum'" in str(info.value)
        assert "available:" in str(info.value)

    def test_set_default_returns_previous_and_validates(self):
        with pytest.raises(ValueError):
            set_default_engine("quantum")
        previous = set_default_engine("naive")
        try:
            assert previous == "worklist"
            assert get_default_engine().name == "naive"
        finally:
            set_default_engine(previous)
        assert get_default_engine().name == "worklist"

    def test_register_engine_roundtrip(self):
        probe = Engine(
            name="probe-engine",
            description="test-only",
            supports_trace=False,
            _run=lambda *a, **k: (0, frozenset(), 0),
        )
        register_engine(probe)
        try:
            assert get_engine("probe-engine") is probe
        finally:
            from repro.core import engines

            engines._REGISTRY.pop("probe-engine")


class TestRunContract:
    def test_engines_agree_on_masks(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)")
        mvd_masks = _masks(encoding, "R(B) ->> R(C)")
        x_mask = _masks(encoding, "R(A) -> R(A)")[0][0]
        outcomes = set()
        for name in ("worklist", "naive", "reference"):
            outcome = get_engine(name).run(
                encoding, x_mask, fd_masks, mvd_masks
            )
            outcomes.add((outcome[0], outcome[1]))
        assert len(outcomes) == 1

    def test_fired_collects_provenance(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(C) -> R(A)")
        x_mask = fd_masks[0][0]  # X = A: only the first FD can fire
        for name in ("worklist", "naive"):
            fired = set()
            get_engine(name).run(encoding, x_mask, fd_masks, [], fired=fired)
            assert fired == {0}, name

    def test_reference_provenance_is_conservative(self, encoding):
        fd_masks = _masks(encoding, "R(A) -> R(B)", "R(C) -> R(A)")
        fired = set()
        get_engine("reference").run(
            encoding, fd_masks[0][0], fd_masks, [], fired=fired
        )
        assert fired == {0, 1}

