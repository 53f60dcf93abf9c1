"""Instances that refuse attribute assignment once built.

A subclass names its fields in ``__slots__`` and fills them in ``__init__``
with ``_set``; assigning or deleting an attribute afterwards is an
AttributeError. Equality stays identity.
"""


class ReadOnly:
    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a read-only {type(self).__name__}")

    __delattr__ = __setattr__
