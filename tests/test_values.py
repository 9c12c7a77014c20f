"""The value-type contract of the configurations and the polyomino."""

import copy
import dataclasses
import pickle

import pytest

from sandnara.errors import PathsCross
from sandnara.kn import KnConfig
from sandnara.polyomino import ParaPolyomino
from sandnara.sandpile import BipartiteConfig, burn


def _seen(value):
    """What a caller sees of a value, round trips included."""
    return (
        hash(value),
        repr(value),
        value.to_json(),
        pickle.dumps(value),
        pickle.loads(pickle.dumps(value)),
        copy.deepcopy(value),
        dataclasses.replace(value),
    )


@pytest.mark.parametrize(
    "cls,args,text,bad,error,message",
    [
        (
            BipartiteConfig,
            (3, 4, [0, 2, 1, 2, 1, 2]),
            "BipartiteConfig(m=3, n=4, heights=(0, 2, 1, 2, 1, 2))",
            (3, 4, [0, -1]),  # the length is checked before the signs
            ValueError,
            "expected 6 heights, got 2",
        ),
        (
            KnConfig,
            (4, [2, 1, 0]),
            "KnConfig(n=4, heights=(2, 1, 0))",
            (1, [-1]),  # n is checked before the length and the signs
            ValueError,
            "need n >= 2",
        ),
        (
            ParaPolyomino,
            (2, 2, [1, 2], [0, 0]),
            "ParaPolyomino(2x2, 'NENE'/'EENN')",
            (2, 2, [2, 2], [0, 2]),
            PathsCross,
            "profiles do not bound a polyomino: [2, 2] / [0, 2]",
        ),
    ],
    ids=["BipartiteConfig", "KnConfig", "ParaPolyomino"],
)
def test_value_contract(cls, args, text, bad, error, message):
    value, same = cls(*args), cls(*args)
    fields = tuple(tuple(a) if isinstance(a, list) else a for a in args)
    assert value == same
    assert hash(value) == hash(same) == hash(fields)
    assert value != fields
    for field, arg in zip(dataclasses.fields(value), fields):
        assert type(getattr(value, field.name)) is type(arg)
        assert getattr(value, field.name) == arg
    assert {value, same} == {value}
    with pytest.raises(AttributeError):
        setattr(value, dataclasses.fields(value)[0].name, 5)
    assert repr(value) == text
    with pytest.raises(error) as exc:
        cls(*bad)
    assert str(exc.value) == message
    seen = _seen(value)
    for copied in seen[-3:]:
        assert copied == value and hash(copied) == hash(value)
    if cls is BipartiteConfig:
        # the burning run kept on the object is not part of the value
        burnt = burn(value)
        assert value._burnt is burnt
        assert value == same and hash(value) == hash(same)
        assert _seen(value) == seen
        assert all(copied._burnt is None for copied in _seen(value)[-3:])
