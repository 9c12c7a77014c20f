"""Enumeration caps and the check record."""

import pytest

from sandnara.config import DEFAULT_MAX_OBJECTS, Check, guard_count, object_cap
from sandnara.errors import ResourceLimit


class TestObjectCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SANDPILE_MAX_OBJECTS", raising=False)
        assert object_cap() == DEFAULT_MAX_OBJECTS

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SANDPILE_MAX_OBJECTS", "123")
        assert object_cap() == 123

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("SANDPILE_MAX_OBJECTS", "123")
        assert object_cap(7) == 7

    def test_guard(self):
        assert guard_count(5, 10, "x") == 5
        with pytest.raises(ResourceLimit, match="x: 11 objects exceeds cap 10"):
            guard_count(11, 10, "x")
        with pytest.raises(ResourceLimit, match="x: 11 cells exceeds cap 10"):
            guard_count(11, 10, "x", "cells")

    @pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-3"])
    def test_bad_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("SANDPILE_MAX_OBJECTS", value)
        with pytest.raises(ValueError, match="SANDPILE_MAX_OBJECTS"):
            object_cap()


class TestCheck:
    def test_minimal_json(self):
        assert Check("c", True).to_json() == {"name": "c", "holds": True}

    def test_full_json(self):
        chk = Check("c", False, "why", conjecture=True)
        assert chk.to_json() == {
            "name": "c",
            "holds": False,
            "detail": "why",
            "conjecture": True,
        }


def test_env_cap_reaches_enumerations(monkeypatch):
    from sandnara.polyomino import enumerate_para

    monkeypatch.setenv("SANDPILE_MAX_OBJECTS", "2")
    with pytest.raises(ResourceLimit):
        list(enumerate_para(2, 2))
    monkeypatch.delenv("SANDPILE_MAX_OBJECTS")
    assert len(list(enumerate_para(2, 2))) == 3
