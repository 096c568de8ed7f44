"""Immutable value records without generated code.

A subclass's fields are its ``__init__``'s parameters, in order; the
``__init__`` stores them with ``self.__dict__.update(...)``, then checks
them, and may store values derived from them the same way.  Records
compare and hash field by field, print as ``Name(field=value, ...)``,
serve ``match`` by position and refuse assignment and deletion with
AttributeError, as a frozen dataclass does; no source is generated or
compiled when a subclass is defined.
"""


class Record:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]  # after self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes):
        """A new record with ``changes`` applied, checked as any new record."""
        return self.__class__(**dict(zip(self.__match_args__, self._values()), **changes))
