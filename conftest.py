"""Shared pytest set-up: one hypothesis profile for every property test.

Property tests here do exact big-integer work whose time per example
varies with the drawn inputs, so the profile sets no per-example
deadline; a slow example is not a failure.
"""

from hypothesis import settings

settings.register_profile("smoothlab", deadline=None)
settings.load_profile("smoothlab")
