"""Shared test settings.

With ``CI`` set, ``hypothesis`` draws its examples from a fixed seed
(``derandomize``) and prints the blob that replays a failure, so a red CI run
reproduces locally with ``CI=1``. Without it, local runs draw fresh examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
