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
    """A document entry that does not fit its shape or a value rule.  Each
    container it passes through prepends its step to steps, so a read that
    refuses nothing builds no path; read() formats it once."""

    def __init__(self, text: str):
        super().__init__(text)
        self.steps = []  # innermost first: (separator, or None for a key's; text)


def _refused(need: str, value=_ABSENT) -> Refused:
    return Refused(f"needs {need}, " + ("and is missing" if value is _ABSENT else f"not {value!r}"))


def _at(exc: ValueError, step, sep=None) -> Refused:
    """exc, a Refused if a value rule's ValueError, its path now beginning with step."""
    if exc.__class__ is not Refused:
        exc = Refused(str(exc))
    exc.steps.append((sep, step))
    return exc


class Leaf:
    """A scalar of one of classes exactly (a boolean is no int), then convert."""

    def __init__(self, need: str, classes: tuple, convert=None):
        self.need, self.classes, self.convert = need, classes, convert

    def read(self, value):
        if value.__class__ not in self.classes:
            raise _refused(self.need, value)
        return value if self.convert is None else self.convert(value)


class ListOf:
    """A list of items of one shape, or of one item of each shape in a
    tuple of shapes; decodes to a tuple."""

    def __init__(self, item, need: str):
        self.item, self.need = item, need
        self.fixed = item if isinstance(item, tuple) else None

    def read(self, value):
        fixed = self.fixed
        if value.__class__ not in (list, tuple) or fixed and len(value) != len(fixed):
            raise _refused(self.need, value)
        item, out = self.item, []
        try:
            for i, x in enumerate(value):
                out.append((fixed[i] if fixed else item).read(x))
        except ValueError as exc:
            raise _at(exc, f"[{i}]", "") from None
        return tuple(out)
class Mapping:
    """A mapping of names to values of one shape."""

    def __init__(self, value, need: str):
        self.value, self.need = value, need

    def read(self, value):
        if value.__class__ is not dict:
            raise _refused(self.need, value)
        for k in value:
            if k.__class__ is not str:
                raise _refused("a name as each key", k)
        shape, out = self.value, {}
        try:
            for k, v in value.items():
                out[k] = shape.read(v)
        except ValueError as exc:
            raise _at(exc, k) from None
        return out


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
        self.defaults = {key.to: key.default for key in self.keys.values()
                         if key.default is not REQUIRED}
        self.need, self.build, self.label = f"{what} {{{', '.join(keys)}}}", build, label

    def read(self, value):
        if value.__class__ is not dict:
            raise _refused(self.need, value)
        try:
            args, keys = self.defaults.copy(), self.keys
            for k, v in value.items():
                if k not in keys:
                    raise _refused(f"one of the keys {' | '.join(keys)}", k)
                shape, to, default = keys[k]
                if v is not None or default is not None:
                    try:
                        args[to] = shape.read(v)
                    except ValueError as exc:
                        raise _at(exc, k) from None
            if len(args) < len(keys):
                k, (shape, _, _) = next((k, key) for k, key in keys.items() if key.to not in args)
                raise _at(_refused(shape.need), k)
            return self.build(**args)
        except ValueError as exc:
            if not self.label:
                raise
            name = f" {value['name']!r}" if "name" in value else ""
            raise _at(exc, f"({self.label}{name})", " ") from None


class Tagged:
    """A mapping whose tag key picks the Entry, declaring the tag too, that reads it."""

    def __init__(self, what: str, tag: str, variants: dict):
        self.need, self.tag, self.variants = f"{what} {{{tag}, ...}}", tag, variants

    def read(self, value):
        if value.__class__ is not dict:
            raise _refused(self.need, value)
        tag = value.get(self.tag, _ABSENT)
        if tag.__class__ is not str or tag not in self.variants:
            raise _at(_refused(f"one of {' | '.join(self.variants)}", tag), self.tag)
        return self.variants[tag].read(value)


class Choice:
    """A one-key mapping whose key picks its body's shape and build, or a
    scalar of a class in scalars, built as scalars says.  define() sets the
    options once the Choice exists, so a grammar can refer to itself."""

    def __init__(self, what: str, scalars: dict | None = None):
        self.what, self.scalars = what, scalars or {}

    def define(self, options: dict) -> None:
        """options: key -> (shape of its body, build of the decoded body)."""
        self.options, self.need = options, f"{self.what} {{{' | '.join(options)}: ...}}"

    def read(self, value):
        build = self.scalars.get(value.__class__)
        if build is not None:
            return build(value)
        if value.__class__ is not dict or len(value) != 1 or next(iter(value)) not in self.options:
            raise _refused(self.need, value)
        [(k, body)] = value.items()
        shape, build = self.options[k]
        try:
            return build(shape.read(body))
        except ValueError as exc:
            raise _at(exc, k) from None


def read(shape, value, where: str):
    """value decoded against shape, or Refused beginning with where and the
    path to the entry refused: a key follows `.`, or ` ` after a label."""
    try:
        return shape.read(value)
    except ValueError as exc:
        at = ""
        for sep, step in reversed(getattr(exc, "steps", ())):
            sep = sep if sep is not None else " " if at.endswith(")") else "."
            at = f"{at}{sep}{step}" if at else str(step)
        raise Refused(f"{where}: {at}: {exc}" if at else f"{where}: {exc}") from None


TEXT = Leaf("text", (str,))
NAME = Leaf("a name", (str,))
BOOL = Leaf("true or false", (bool,))
NAMES = ListOf(NAME, "a list of names")
PAIRS = ListOf(ListOf((NAME, NAME), "a [left, right] pair of names"),
               "a list of [left, right] pairs of names")
