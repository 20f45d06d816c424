"""Immutable records: the frozen value classes of every layer.

``record`` reads a class's annotated fields and their defaults from its body
and generates one ``__init__`` for it; every other method is shared.  A
record compares equal to a record of the same class with equal fields,
hashes its fields, prints as ``Dyadic(num=3, exp=2)``, refuses assignment
and deletion with ``AttributeError``, and copies and pickles by calling its
class on its fields.

Each command runs in a fresh process, and ``dataclasses`` generates and
``exec``s every method of every class at import, which was most of the
package's import time.  ``__init__`` alone is still generated because a
command builds many records, and a shared initialiser looping over the
fields costs each of them more.
"""


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")


def _delattr(self, name):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def _reduce(self):
    return type(self), _values(self)


_SHARED = {
    "__eq__": _eq,
    "__hash__": _hash,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
    "__reduce__": _reduce,
}


def record(cls):
    """Make ``cls`` an immutable record of its annotated fields.

    The generated ``__init__`` takes the fields as named parameters with
    their class-body defaults, sets each with ``object.__setattr__`` and then
    calls ``self.__post_init__()`` if the class has one, looked up at call
    time so that a wrapper set on the class later still runs.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f"_d_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ("self", *(f"{n}=_d_{n}" if f"_d_{n}" in defaults else n for n in names))
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_set": object.__setattr__, **defaults}
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"]), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__match_args__ = names
    for name, method in _SHARED.items():
        setattr(cls, name, method)
    return cls
