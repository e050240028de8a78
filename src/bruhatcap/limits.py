"""Size limits and default caps, the one reader of a count, the reader of
an iterable argument and the one size refusal, in a module that imports
only the errors.

The command line reads these defaults while it builds its parser, before
it knows which command runs, so they live apart from the modules that
enforce them.  The policy that read_count and require_size carry out is
stated once, in README's "Guarantees carried at runtime".
"""

from .errors import SizeLimitError, ValidationError

# The largest rank built.  At it, `roots --format json` of type B, C or D takes
# about 1.6 s and `capacity` 0.7 s (2-vCPU machine, Python 3.11).
MAX_RANK = 55
# Parsed input stays printable: str() of an int refuses more than 4300 digits.
MAX_DIGITS = 1000
# Weyl groups are enumerated up to this order, a limit a caller lowers
# (`--group-cap`, `BC_GROUP_CAP`).  Every group over it is also over the memory
# budget below, which is checked first.
DEFAULT_GROUP_CAP = 10_000_000
# `capacity` enumerates W and confirms the upper bound on the graphs up to this order.
DEFAULT_CONFIRM_CAP = 25_000
# The largest n for which the weighted Cayley graph of S_n is built.
DEFAULT_CAYLEY_CAP = 7
# Whatever is estimated, before it is built, to need more bytes than this is
# refused, at any cap: a Weyl group with its |R+| reflection tables and a graph
# export over them (weyl.enumeration_bytes, over the measured peaks at A8 and B7:
# E6 about 46 MB, A8 335 MB, B7 and C7 661 MB, the largest accepted; E7 about
# 3.4 GB, so E7 and E8 are refused) and a Cayley search of S_n
# (graphs.cayley_bytes: S_9 about 244 MB, S_10 about 2.7 GB, so n >= 10 is refused).
GROUP_MEMORY_BUDGET = 1 << 30


def read_count(name: str, value, start: int = 0, stop: int | None = None) -> int:
    """value, an int that is not a bool, in range(start, stop) (unbounded above
    when stop is None); anything else is a ValidationError that names it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < start or stop is not None and value >= stop:
        within = (f"in range({start}, {stop})" if stop is not None
                  else "nonnegative" if start == 0 else f"at least {start}")
        raise ValidationError(f"{name} must be {within}, got {value}")
    return value


def read_items(name: str, value):
    """iter(value); a ValidationError that names it if value is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {value!r}") from None


def require_size(what: str, count: int, cap, need: int) -> None:
    """The one size refusal, made before anything is built: the cap is read as a
    count, then SizeLimitError if need, the estimated bytes, is over
    GROUP_MEMORY_BUDGET (whatever the cap), else if count is over the cap."""
    cap = read_count("cap", cap)
    if need > GROUP_MEMORY_BUDGET:
        raise SizeLimitError(f"{what} would need about {need >> 20:,} MB, "
                             f"over the memory budget of {GROUP_MEMORY_BUDGET >> 20:,} MB")
    if count > cap:
        raise SizeLimitError(f"{what} is over the cap {cap:,}")
