"""Indented, key-sorted JSON text (:func:`dumps`): the bytes of every
report, certificate and schema that polyrec writes."""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii as _encode_string

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key(key) -> str:
    """A dict key as JSON writes it: a string, or the JSON text of a scalar."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dumps(doc, indent: str = "\n") -> str:
    """doc as ``json.dumps(doc, indent=2, sort_keys=True)`` writes it.

    With an indent, CPython's ``json`` encodes in its pure-Python generator
    chain, one generator per container; on a recurrence report that took
    as long as the sweep.  This writer builds the same text directly:
    strings go through the C ``encode_basestring_ascii``, a list of plain
    ints is one join, and a list of equal-length lists of plain ints
    renders every row with one template.  ``bool`` is a subclass of ``int``
    but not a plain int, so it is still written ``true``/``false``.  A
    hypothesis test pins the output to ``json.dumps`` byte for byte.
    ``indent`` is the newline and indentation before this value's closing
    bracket.
    """
    if isinstance(doc, str):
        return _encode_string(doc)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):
        text = float.__repr__(doc)
        return _NONFINITE.get(text, text)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        types = set(map(type, doc))
        if types == {int}:
            body = sep.join(map(int.__repr__, doc))
        elif (
            types == {list}
            and len(lengths := set(map(len, doc))) == 1
            and set(map(type, itertools.chain.from_iterable(doc))) == {int}  # so rows are not empty
        ):
            deeper = inner + "  "
            template = "[" + deeper + ("{}," + deeper) * (lengths.pop() - 1) + "{}" + inner + "]"
            body = sep.join(itertools.starmap(template.format, doc))
        else:
            body = sep.join([dumps(x, inner) for x in doc])
        return "[" + inner + body + indent + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [_encode_string(_key(k)) + ": " + dumps(v, inner) for k, v in sorted(doc.items())]
        return "{" + inner + sep.join(items) + indent + "}"
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
