"""Settings shared by every test module."""

from hypothesis import settings

# One profile for every property: each run draws the same examples, so a
# failure can be tied to the change that caused it, and no example has a
# deadline, since the timing of a shared machine is not the code's.
settings.register_profile("permfunc", derandomize=True, deadline=None)
settings.load_profile("permfunc")
