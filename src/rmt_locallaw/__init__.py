"""Desk-scale numerical checks for random-matrix spectral laws.

Generalized Wigner sampling, semicircle-law closed forms, resolvent
diagnostics with exact self-consistent identities, Dyson Brownian motion,
four-moment matching and bulk-universality statistics, wrapped in a
reproducible experiment runner.
"""

from . import dbm, ensembles, linalg, locallaw, moments, semicircle, stats

_RUNNER_NAMES = ("ExperimentConfig", "RunManifest", "parse_config", "run", "report", "ARTIFACT_VERSION")


def __getattr__(name):
    # runner loads on first use, so `python -m rmt_locallaw.runner` finds it
    # not yet imported and runpy runs it without a double-import warning
    if name in _RUNNER_NAMES or name == "__version__":
        from . import runner

        return getattr(runner, "ARTIFACT_VERSION" if name == "__version__" else name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "dbm",
    "ensembles",
    "linalg",
    "locallaw",
    "moments",
    "semicircle",
    "stats",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "run",
    "report",
    "ARTIFACT_VERSION",
    "__version__",
]
