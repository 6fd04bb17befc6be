"""latgov: latency governance toolkit.

Behavioral latency curves (:mod:`latgov.model`), telemetry ingestion and
SLO tracking (:mod:`latgov.telemetry`), the UX mode governor
(:mod:`latgov.governor`), simulation scenarios and results
(:mod:`latgov.config`), a seeded Monte-Carlo session simulator
(:mod:`latgov.simulator`), and a CLI (:mod:`latgov.cli`).
Importing the package imports none of these modules: each name is imported
from its own module, e.g. ``from latgov.model import ModelParams``.
"""

__version__ = "0.1.0"
