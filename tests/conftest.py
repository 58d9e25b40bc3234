"""Settings shared by the whole test suite."""

from hypothesis import settings

# Property tests draw the same examples on every run, and no example has a
# deadline: a loaded host can slow one past Hypothesis' 200 ms default.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
