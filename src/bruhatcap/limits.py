"""Size limits and default caps, in a module that imports only the errors.

The command line reads these defaults while it builds its parser, before
it knows which command runs, so they live apart from the modules that
enforce them (rootsystem, weyl, graphs, capacity); each of those imports
its own names from here, and the one refusal of a negative cap.
"""

from .errors import ValidationError

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
# A Weyl group whose enumeration and |R+| reflection tables are estimated, before
# any is built, to need more bytes than this is refused (weyl.enumeration_bytes).
# E6 needs about 32 MB, A8 243 MB and B7 482 MB; E7 about 2.4 GB, so it is refused.
GROUP_MEMORY_BUDGET = 1 << 30


def require_nonnegative_cap(name: str, cap: int) -> None:
    """ValidationError naming the cap if it is negative; a cap of 0 is valid."""
    if cap < 0:
        raise ValidationError(f"{name} must be nonnegative, got {cap}")
