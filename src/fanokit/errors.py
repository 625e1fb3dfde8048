"""Exception hierarchy, type checks on parsed input JSON, and the Record base.

InputError covers malformed user input (bad JSON, invalid polygons) and
requests over a work budget; it maps to CLI exit code 2.  MathError covers
violated mathematical preconditions (non-simplicial fans, unbounded regions,
torsion) and maps to exit code 3.
The json_* readers raise SchemaError where parsed JSON has the wrong type;
an integer field takes only a JSON integer (no float, string or boolean).
"""


class FanokitError(Exception):
    pass


class InputError(FanokitError):
    pass


class NonPrimitiveVertex(InputError):
    pass


class OriginNotInterior(InputError):
    pass


class NotConvex(InputError):
    pass


class SchemaError(InputError):
    pass


class WorkBudgetExceeded(InputError):
    """A request whose estimated work is over the package's stated limit."""


class MathError(FanokitError):
    pass


class NonSimplicial(MathError):
    pass


class Unbounded(MathError):
    pass


class CorankError(MathError):
    pass


class TorsionClassGroup(MathError):
    pass


def json_list(value, what):
    """``value`` when it is a JSON array (or a tuple, from library callers)."""
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


def json_int(value, what):
    """``value`` when it is a JSON integer; a boolean is not one."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def json_ints(value, what, length=None):
    """A JSON array of integers, of the given length if one is given, as a tuple."""
    json_list(value, what)
    if length is not None and len(value) != length:
        raise SchemaError(f"{what} must have {length} entries, got {value!r}")
    for v in value:
        if type(v) is not int:
            json_int(v, what)
    return tuple(value)


class Record:
    """Frozen record, generating no code at import: the fields are the subclass's
    own annotations in order, and class attributes are defaults, as in a dataclass."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            # Record itself stands for a missing field: no field defaults to it.
            args += tuple(kwargs.pop(n, getattr(type(self), n, Record)) for n in names[len(args):])
            if kwargs or len(args) != len(names) or any(v is Record for v in args):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    # An instance's __dict__ holds exactly its fields, in order, as set above:
    # assignment and deletion raise, and __post_init__ only replaces values.
    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        items = ", ".join(f"{n}={v!r}" for n, v in vars(self).items())
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
