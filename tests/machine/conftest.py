"""Hypothesis profiles for the machine battery.

``--hypothesis-profile=nightly`` (the CI schedule job, on
``test_scheduler_order.py``) runs 10x the default 100 examples and
prints the ``@reproduce_failure`` blob of a failing one.
"""

from hypothesis import settings

settings.register_profile("nightly", max_examples=1000, print_blob=True)
