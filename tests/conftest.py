"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` runs each property with ten
times hypothesis's default number of examples."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
