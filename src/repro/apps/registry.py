"""Application registry: name -> builder."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

from repro.apps.des import build_des
from repro.apps.descriptor import Application
from repro.apps.fft import build_fft
from repro.apps.matrix import build_mat1, build_mat2
from repro.apps.qsort import build_qsort
from repro.apps.synthetic import build_synthetic
from repro.errors import ApplicationError
from repro.traffic.trace import TrafficTrace

__all__ = ["APPLICATIONS", "build_application", "default_full_crossbar_trace"]

APPLICATIONS: Dict[str, Callable[..., Application]] = {
    "mat1": build_mat1,
    "mat2": build_mat2,
    "fft": build_fft,
    "qsort": build_qsort,
    "des": build_des,
    "synthetic": build_synthetic,
}
"""Builders for every benchmark in the paper's evaluation."""


def build_application(name: str, **kwargs) -> Application:
    """Build a benchmark application by registry name.

    Extra keyword arguments are forwarded to the specific builder (e.g.
    ``critical_targets`` or, for ``synthetic``, ``burst_cycles``).

    A *default* build (no keyword overrides) is tagged with its
    ``registry_key``, marking that ``build_application(key)`` reproduces
    this exact application -- the property content-keyed trace
    collection and replay caching rely on. Customized builds carry no
    key.
    """
    try:
        builder = APPLICATIONS[name]
    except KeyError:
        known = ", ".join(sorted(APPLICATIONS))
        raise ApplicationError(
            f"unknown application {name!r}; available: {known}"
        ) from None
    application = builder(**kwargs)
    if not kwargs:
        application = replace(application, registry_key=name)
    return application


_DEFAULT_TRACES: Dict[str, TrafficTrace] = {}


def default_full_crossbar_trace(name: str) -> TrafficTrace:
    """The Phase-1 full-crossbar trace of a *default* registry build.

    Memoized per process: the platform simulation is deterministic, and
    scenario suites, sweeps and examples repeatedly need the stock
    applications' traffic -- one simulation per process serves every
    consumer (the trace object is immutable, so sharing is safe).
    Builds with keyword overrides are not cached; simulate those
    explicitly.
    """
    if name not in _DEFAULT_TRACES:
        trace = build_application(name).simulate_full_crossbar().trace
        _DEFAULT_TRACES[name] = trace
    return _DEFAULT_TRACES[name]
