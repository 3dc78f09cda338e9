"""Shared test settings.

With ``CI`` set, ``hypothesis`` draws its examples from a fixed seed
(``derandomize``) and prints the blob that replays a failure, so a red CI run
reproduces locally with ``CI=1``. Without it, local runs draw fresh examples.

Every test must leave no child process behind: a training run's helper
(``fairvae.parallel``) exits and is reaped when the run returns or raises.
"""

import os

# BLAS runs one thread, as in the benchmark, so that the process may fork a
# training run's helper (fairvae.parallel.forkable) and the tests exercise
# split steps; numpy has not loaded yet. A variable already set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"the test left child process {pid or '(running)'} behind")
