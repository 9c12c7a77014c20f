"""Exception types shared across the package, and the field check that the
JSON constructors apply to their input."""


class SandnaraError(Exception):
    """Base class for all library errors."""


class NotMonotone(SandnaraError):
    """A step word does not consist of the required number of N and E steps."""


class PathsCross(SandnaraError):
    """Upper and lower paths touch or cross strictly between their endpoints."""


class NotRecurrent(SandnaraError):
    """Operation requires a recurrent configuration."""


class NotSorted(SandnaraError):
    """Operation requires a weakly decreasing configuration."""


class NotMinanz(SandnaraError):
    """Operation requires a minimal almost-non-zero configuration."""


class InvalidMatrix(SandnaraError):
    """Set matrix violates the bicomposition invariants."""


class NotUpperTriangular(SandnaraError):
    """Operation requires an upper-triangular bicomposition matrix."""


class NotIntervalOrder(SandnaraError):
    """Relation is not a (2+2)-free partial order."""


class NotInDomain(SandnaraError):
    """Polyomino lies outside the domain of the requested bijection."""


class VertexNotToppled(SandnaraError):
    """Vertex never topples during the canonical toppling of the configuration."""


class ResourceLimit(SandnaraError):
    """Requested enumeration exceeds the configured object cap."""


def json_field(data: dict, key: str, kind: type, depth: int = 0):
    """data[key], required to be a `kind` (int or str) nested in `depth`
    levels of lists; raises ValueError naming the field otherwise.  A JSON
    boolean is not an integer here."""
    value = data[key]

    def fits(v, d: int) -> bool:
        if d:
            return isinstance(v, (list, tuple)) and all(fits(x, d - 1) for x in v)
        return isinstance(v, kind) and not isinstance(v, bool)

    if not fits(value, depth):
        what = "list of " * depth + kind.__name__
        raise ValueError(f"field {key!r} must be {what}, got {value!r:.60}")
    return value
