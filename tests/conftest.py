"""One hypothesis profile for every property test in the suite.

``derandomize`` fixes each test's examples by the test itself, so two runs
try the same examples and give the same outcomes. Nothing carries over
from one run to the next: there is no example database, and the constants
cache goes to a temporary directory, not into the working tree. The
``too_slow`` health check, which times generation on the machine at hand,
is off, because an outcome must not depend on load.
"""

import tempfile
import warnings

from hypothesis import HealthCheck, settings
from hypothesis.configuration import set_hypothesis_home_dir

_storage = tempfile.TemporaryDirectory(prefix="cogcn-hypothesis-")
set_hypothesis_home_dir(_storage.name)
settings.register_profile("cogcn", derandomize=True, database=None, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("cogcn")

# Hypothesis reports a failing example through a module whose import warns
# (libcst, via mypy_extensions). Under filterwarnings = ["error"] that would
# turn the report into an INTERNALERROR that hides the example, so the module
# is imported here with that one category off.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_unconfigure(config):
    _storage.cleanup()
