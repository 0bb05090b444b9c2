"""Frozen record classes, a small stand-in for frozen dataclasses.

``record`` turns a class with annotated fields into an immutable value type:
an ``__init__`` taking the fields positionally or by keyword (class-level
values are defaults, and ``__post_init__`` runs last, free to normalize
fields with ``object.__setattr__``), a ``repr`` of the form
``Name(field=value, ...)``, ``==`` between instances of the same class,
``hash`` of the field tuple and ``__match_args__``.  Assigning or deleting
an attribute raises ``AttributeError``.  Unlike ``dataclasses`` it imports
nothing, which keeps command-line start-up short.
"""


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    params = ", ".join(
        f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields
    )
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace = {"_defaults": defaults, "_set": object.__setattr__}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    def values(self):
        return tuple(getattr(self, name) for name in fields)

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    cls.__init__ = init
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__match_args__ = fields
    return cls
