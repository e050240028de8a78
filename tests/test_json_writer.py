"""The one JSON writer: rootsystem.json_chunks and its item templates.

Every JSON export (`graph ... --format json`, `roots --format json`) is the
stream of json_chunks, whose items are cut from json_item templates.  The
chunks joined must be json.dumps(indent=2, sort_keys=True) + "\\n" of the
whole document, wherever the streamed lists sort among the other members,
whatever the blocks hold (an empty block is a vertex without edges), and
whatever the strings spell, the placeholder's own character included.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcap.rootsystem import json_chunks, json_item

# Keys and strings drawn from a few characters, so that streamed keys sort
# first, between and last among the others, and strings spell quotes,
# backslashes, newlines, non-ASCII and the NUL of the writer's placeholder.
KEYS = st.text(alphabet='aeuvz"\0', max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.text(alphabet='ab"\\\0\né', max_size=4))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _fill(parts: list[str], holes: dict) -> str:
    """A json_item template with the JSON texts of its holes, in sorted order, filled in."""
    texts = [json.dumps(holes[k]) for k in sorted(holes)]
    return parts[0] + "".join(text + part for text, part in zip(texts, parts[1:]))


@st.composite
def _items(draw):
    """(value, holes): an item's fixed members and its scalar members left as holes."""
    holes = draw(st.dictionaries(KEYS, SCALARS, max_size=3))
    value = draw(st.dictionaries(KEYS.filter(lambda k: k not in holes), VALUES, max_size=3))
    return value, holes


@st.composite
def _documents(draw):
    """(payload, streamed): streamed maps each streamed key to its blocks of items."""
    streamed = draw(st.dictionaries(
        KEYS, st.lists(st.lists(_items(), max_size=3), max_size=3), max_size=3))
    payload = draw(st.dictionaries(KEYS.filter(lambda k: k not in streamed), VALUES, max_size=4))
    return payload, streamed


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_chunks_joined_are_json_dumps_of_the_whole_document(document):
    payload, streamed = document
    lists = {key: ([_fill(json_item(value, tuple(holes)), holes) for value, holes in block]
                   for block in blocks)
             for key, blocks in streamed.items()}
    whole = {**payload, **{key: [{**value, **holes} for block in blocks for value, holes in block]
                           for key, blocks in streamed.items()}}
    assert "".join(json_chunks(payload, lists)) == _dumps(whole) + "\n"


@settings(max_examples=200, deadline=None)
@given(_items())
def test_an_item_template_filled_is_the_item_two_levels_deep(item):
    value, holes = item
    parts = json_item(value, tuple(holes))
    assert len(parts) == len(holes) + 1
    text = _dumps({**value, **holes})
    assert _fill(parts, holes) == "    " + text.replace("\n", "\n    ")


@pytest.mark.parametrize("key", ["a", "m", "z"])  # sorts first, in the middle, last
@pytest.mark.parametrize("blocks", [[], [[]], [[], [1, 2], [], [3]], [[1]]])
def test_a_streamed_list_anywhere_with_empty_blocks(key, blocks):
    payload = {"b": [1, {"c": None}], "y": "\0"}
    lists = {key: ([json_item({"n": n})[0] for n in block] for block in blocks)}
    whole = {**payload, key: [{"n": n} for block in blocks for n in block]}
    assert "".join(json_chunks(payload, lists)) == _dumps(whole) + "\n"
