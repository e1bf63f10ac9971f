"""A cached property with no lock: `functools.cached_property` takes one on
every first read on CPython 3.11 (3.12 dropped it).  Two threads reading one
attribute at once may each compute it, as on 3.12, and get equal values."""


class cached_property:
    """A non-data descriptor: the first read on an object stores `func`'s
    value in the object's `__dict__`, where every later read finds it."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
