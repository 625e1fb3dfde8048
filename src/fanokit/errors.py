"""Exception hierarchy, and the type checks on parsed input JSON.

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
    return tuple(json_int(v, what) for v in value)
