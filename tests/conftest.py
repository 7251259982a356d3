"""Shared test settings: one hypothesis profile for every property module.

Property tests draw 25 derandomized examples with no deadline, so every run
checks the same examples and a slow loop never fails on time alone.
"""

from hypothesis import settings

settings.register_profile("ringflux", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("ringflux")
