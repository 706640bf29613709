"""Shared hygiene for the observability suite.

Tracing state is process-global (one module-level collector), so every
test ends with tracing fully disarmed -- a leaked armed collector would
make unrelated tests record spans. Fault plans are cleared for the same
reason: the chaos+tracing regression installs them.
"""

import pytest

from repro.obs import tracing
from repro.resilience import clear_plan


@pytest.fixture(autouse=True)
def _clean_obs_state():
    clear_plan()
    yield
    if tracing.tracing_enabled():
        tracing.clear_spans()
        tracing.disarm_tracing()
    clear_plan()
