"""The shapes of document entries, and the one walker that reads them.

Each key of a pipeline or column document is declared once, as a Key of
a closed Entry; read() walks a parsed YAML document against them and
returns what it decodes to.  The first misfit in document order stops
the walk with one message form, naming its path, the shape it needs and
the value found: `nodes[0] (join 'price_lookup') keys[0]: needs a [left,
right] pair of names, not 'ab'`.  A value rule stays in the constructor
that owns it; its ValueError is reported at the path of the entry built.
"""

from __future__ import annotations

from typing import NamedTuple

REQUIRED = object()  # the default of a Key the document must give
_ABSENT = object()  # what a missing key holds


class Refused(ValueError):
    """A document entry that does not fit its shape or a value rule."""


def _fail(at: str, text: str):
    raise Refused(f"{at}: {text}" if at else text)


def _refuse(at: str, need: str, value=_ABSENT):
    _fail(at, f"needs {need}, " + ("and is missing" if value is _ABSENT else f"not {value!r}"))


def _built(build, at: str, *args, **kwargs):
    """build(*args, **kwargs), its ValueError refused at the path at."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        _fail(at, str(exc))


def _key(at: str, key) -> str:
    return f"{at}{' ' if at.endswith(')') else '.'}{key}" if at else str(key)


class Leaf:
    """A scalar of one of classes exactly (a boolean is no int), then convert."""

    def __init__(self, need: str, classes: tuple, convert=None):
        self.need, self.classes, self.convert = need, classes, convert

    def read(self, value, at: str):
        if value.__class__ not in self.classes:
            _refuse(at, self.need, value)
        return value if self.convert is None else _built(self.convert, at, value)


class ListOf:
    """A list of items of one shape, or of one item of each shape in a
    tuple of shapes; decodes to a tuple."""

    def __init__(self, item, need: str):
        self.item, self.need = item, need

    def read(self, value, at: str):
        fixed = self.item if isinstance(self.item, tuple) else None
        if value.__class__ not in (list, tuple) or fixed and len(value) != len(fixed):
            _refuse(at, self.need, value)
        return tuple((fixed[i] if fixed else self.item).read(x, f"{at}[{i}]")
                     for i, x in enumerate(value))


class Mapping:
    """A mapping of names to values of one shape."""

    def __init__(self, value, need: str):
        self.value, self.need = value, need

    def read(self, value, at: str):
        if value.__class__ is not dict:
            _refuse(at, self.need, value)
        for k in value:
            if k.__class__ is not str:
                _refuse(at, "a name as each key", k)
        return {k: self.value.read(v, _key(at, k)) for k, v in value.items()}


class Key(NamedTuple):
    """An Entry's key: its shape, the argument it feeds if not its own name, its default."""

    shape: object
    to: str | None = None
    default: object = REQUIRED


class Entry:
    """A mapping of declared keys only, each a Key or the shape of a required
    key; build gets each value or default as the argument it feeds.  Null
    fits no shape, but a key whose default is None may be written null.
    label is what the name key names: `nodes[0] (join 'price_lookup')`."""

    def __init__(self, what: str, keys: dict, build, label: str | None = None):
        keys = {k: key if isinstance(key, Key) else Key(key) for k, key in keys.items()}
        self.keys = {k: key._replace(to=key.to or k) for k, key in keys.items()}
        self.need, self.build, self.label = f"{what} {{{', '.join(keys)}}}", build, label

    def read(self, value, at: str):
        if value.__class__ is not dict:
            _refuse(at, self.need, value)
        if self.label:
            name = f" {value['name']!r}" if "name" in value else ""
            at = f"{at} ({self.label}{name})".lstrip()
        args = {}
        for k, v in value.items():
            if k not in self.keys:
                _refuse(at, f"one of the keys {' | '.join(self.keys)}", k)
            shape, to, default = self.keys[k]
            if v is not None or default is not None:
                args[to] = shape.read(v, _key(at, k))
        for k, (shape, to, default) in self.keys.items():
            if to not in args:
                if default is REQUIRED:
                    _refuse(_key(at, k), shape.need)
                args[to] = default
        return _built(self.build, at, **args)


class Tagged:
    """A mapping whose tag key picks the Entry, declaring the tag too, that reads it."""

    def __init__(self, what: str, tag: str, variants: dict):
        self.need, self.tag, self.variants = f"{what} {{{tag}, ...}}", tag, variants

    def read(self, value, at: str):
        if value.__class__ is not dict:
            _refuse(at, self.need, value)
        tag = value.get(self.tag, _ABSENT)
        if tag.__class__ is not str or tag not in self.variants:
            _refuse(_key(at, self.tag), f"one of {' | '.join(self.variants)}", tag)
        return self.variants[tag].read(value, at)


class Choice:
    """A one-key mapping whose key picks its body's shape and build, or a
    scalar of a class in scalars, built as scalars says.  define() sets the
    options once the Choice exists, so a grammar can refer to itself."""

    def __init__(self, what: str, scalars: dict | None = None):
        self.what, self.scalars = what, scalars or {}

    def define(self, options: dict) -> None:
        """options: key -> (shape of its body, build of the decoded body)."""
        self.options, self.need = options, f"{self.what} {{{' | '.join(options)}: ...}}"

    def read(self, value, at: str):
        if value.__class__ in self.scalars:
            return _built(self.scalars[value.__class__], at, value)
        if value.__class__ is not dict or len(value) != 1 or next(iter(value)) not in self.options:
            _refuse(at, self.need, value)
        [(k, body)] = value.items()
        shape, build = self.options[k]
        return _built(build, _key(at, k), shape.read(body, _key(at, k)))


def read(shape, value, where: str):
    """value decoded against shape, or Refused beginning with where, such as a path."""
    try:
        return shape.read(value, "")
    except Refused as exc:
        raise Refused(f"{where}: {exc}") from None


TEXT = Leaf("text", (str,))
NAME = Leaf("a name", (str,))
BOOL = Leaf("true or false", (bool,))
NAMES = ListOf(NAME, "a list of names")
PAIRS = ListOf(ListOf((NAME, NAME), "a [left, right] pair of names"),
               "a list of [left, right] pairs of names")
