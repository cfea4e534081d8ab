"""Immutable value records, built without the ``dataclasses`` machinery.

A :class:`Record` subclass names its fields as annotations, in order; a
class attribute of the same name is the field's default, and
``fresh(factory)`` is a default made anew for each record.  Records are
built by position or keyword, run ``__post_init__`` if the class has one,
compare and hash by their fields (a dict field makes a record unhashable)
and refuse assignment and deletion; ``_unchecked`` builds one from values
its caller has already checked, without ``__post_init__``.  Values of
:class:`cached` attributes sit beside the fields in the instance dict and
take no part in any of this.
"""


class cached:
    """An attribute computed on first read and kept in the instance dict,
    where later reads find it first.  It takes no lock, writes the dict
    directly (so records allow it) and keeps nothing when the body raises.
    """

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class fresh:
    """A default made by calling ``factory()`` for each record."""

    def __init__(self, factory):
        self.factory = factory


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        # one generated __init__ per class; its own names all start with
        # _record_, so no field can shadow them
        scope, params, lines = {}, [], ["    _record_dict = _record_self.__dict__"]
        for name in fields:
            value = name
            if name in cls.__dict__:
                default = f"_record_default_{name}"
                scope[default] = cls.__dict__[name]
                params.append(f"{name}={default}")
                if isinstance(scope[default], fresh):
                    value = f"{default}.factory() if {name} is {default} else {name}"
            else:
                params.append(name)
            lines.append(f"    _record_dict[{name!r}] = {value}")
        if hasattr(cls, "__post_init__"):
            lines.append("    _record_self.__post_init__()")
        exec(f"def __init__(_record_self, {', '.join(params)}):\n" + "\n".join(lines), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    @classmethod
    def _unchecked(cls, *values):
        """A record of ``values``, one per field in order, that the caller
        has already checked and put in stored form: no ``__post_init__``."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join([f"{name}={d[name]!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
