"""Hypothesis settings for the whole suite.

No deadline: the CLI fuzz properties run whole CLI calls, whose time varies
with the machine and its load.  print_blob: every falsifying example prints
the `@reproduce_failure` blob that replays it exactly."""

from hypothesis import settings

settings.register_profile("jbv", deadline=None, print_blob=True)
settings.load_profile("jbv")
