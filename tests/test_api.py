"""Public API surface: exported dataclasses are introspectable."""
import dataclasses
import typing

import pytest

import sdsbm

EXPORTED_DATACLASSES = [
    name for name in sdsbm.__all__ if dataclasses.is_dataclass(getattr(sdsbm, name))
]


@pytest.mark.parametrize("name", EXPORTED_DATACLASSES)
def test_dataclass_type_hints_resolve(name):
    typing.get_type_hints(getattr(sdsbm, name))
