"""Settings shared by the whole test suite."""

import warnings

from hypothesis import settings

# Property tests draw the same examples on every run, and no example has a
# deadline: a loaded host can slow one past Hypothesis' 200 ms default.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# When a property test fails, Hypothesis imports libcst to suggest a patch.
# Some libcst and mypy_extensions versions warn (DeprecationWarning) on that
# import, and the suite's "error" warning filter then turns the report of
# one failing test into an INTERNALERROR that ends the session.  Importing
# libcst once here, with its warnings ignored, leaves nothing to warn later;
# every other warning still fails its test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
