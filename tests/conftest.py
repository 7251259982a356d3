"""Shared test settings: one hypothesis profile for every property module.

Property tests draw 25 derandomized examples with no deadline, so every run
checks the same examples and a slow loop never fails on time alone.  The
"deep" profile draws fresh random examples instead, 600 per property that
sets no count of its own: `pytest --hypothesis-profile=deep` selects it.
"""

from hypothesis import settings

settings.register_profile("ringflux", max_examples=25, deadline=None, derandomize=True)
settings.register_profile("deep", max_examples=600, deadline=None)
settings.load_profile("ringflux")
