"""The one builder of the package's immutable value classes; it imports no layer."""

import operator


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete {name!r}: records are immutable")


def record(body: type) -> type:
    """Make ``body`` an immutable value class of its annotated fields, in order.

    It is constructed positionally or by keyword, with the body's defaults,
    and then runs the body's ``__post_init__``, if it has one. Only records
    of one class compare equal, by their fields, so BooleanLiteral(True) !=
    NumberLiteral(1.0), and hash agrees with ==. The repr names every field,
    and assigning or deleting an attribute raises AttributeError. The methods
    are set on ``body`` itself, with no __slots__, so its defaults stay class
    attributes and ``vars``, copy and pickle work as on any object;
    ``__match_args__`` names the fields.
    """
    fields = tuple(body.__annotations__)
    defined = vars(body)
    # a generated __init__ binds keywords and defaults natively, and writes
    # each field straight into the instance dict, past the frozen __setattr__
    scope = {}
    exec(
        f"def __init__(self, {', '.join(fields)}):\n"
        "    __dict__ = self.__dict__\n"
        + "".join(f"    __dict__[{name!r}] = {name}\n" for name in fields)
        + ("    self.__post_init__()\n" if "__post_init__" in defined else ""),
        scope,
    )
    init = scope["__init__"]
    init.__defaults__ = tuple(defined[n] for n in fields if n in defined)
    # one field gives the bare value, more a tuple; either is fine within a class
    values = operator.attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{body.__name__}({shown})"

    body.__match_args__, body.__init__, body.__repr__ = fields, init, __repr__
    body.__eq__, body.__hash__ = __eq__, lambda self: hash(values(self))
    body.__setattr__ = body.__delattr__ = _frozen
    return body
