"""Frozen value types, without the import of dataclasses.

`frozen` rebuilds a class of annotated fields as a slotted value type, as
`dataclasses.dataclass(frozen=True)` did; importing dataclasses (and with it
inspect, ast and dis) cost every command about 11 ms of start-up. A value
type gets:

- an __init__ over its fields in declaration order, those with a default
  last, that calls __post_init__ when the class defines one;
- == and hash over the tuple of its fields, equal only within one class;
- the dataclass repr, `Name(field=value, ...)`;
- an AttributeError on every assignment or deletion of an attribute;
- copy and pickle, by calling the class again on its fields.

Only __init__ is compiled, once per class, so that a constructor stores
each field through its slot with no loop over names: a generic __init__
took twice as long per coset, and `construct` at m = 19 builds 13.8k
cosets. Compiling == and hash as well would have tripled the cost of each
class declaration, and neither runs on a hot path.
"""


class _Frozen:
    __slots__ = ()

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def frozen(cls):
    """cls rebuilt as a frozen slotted value type over its annotated fields."""
    names = tuple(cls.__annotations__)
    namespace = {key: value for key, value in vars(cls).items() if key not in ("__dict__", "__weakref__")}
    defaults = tuple(namespace.pop(name) for name in names if name in namespace)
    if any(name in vars(cls) for name in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a field without a default follows a field with one")
    new = type(cls.__name__, (_Frozen,), {**namespace, "__slots__": names})
    source = f"def __init__(self, {', '.join(names)}):\n" + "".join(f"    _set_{name}(self, {name})\n" for name in names)
    if hasattr(new, "__post_init__"):
        source += "    self.__post_init__()\n"
    scope = {f"_set_{name}": vars(new)[name].__set__ for name in names}
    exec(source, scope)
    new.__init__ = scope["__init__"]
    new.__init__.__defaults__ = defaults or None
    return new
