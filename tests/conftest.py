"""Shared test configuration; keeps this directory importable for oracles.py."""

import warnings

# hypothesis imports libcst while it reports a failing example, and libcst's
# import warns (DeprecationWarning from mypy_extensions.TypedDict). Under the
# tier-1 `-W error` that warning would end the run with INTERNALERROR instead
# of the failure report, so import libcst once here, with the warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
