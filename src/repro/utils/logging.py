"""Namespaced access to the standard :mod:`logging` module.

Every component logs through ``repro.<name>`` loggers, so an application
configures the whole package with one ``logging.getLogger("repro")``.
"""

from __future__ import annotations

import logging as _stdlib_logging

__all__ = ["get_logger"]


def get_logger(name: str) -> _stdlib_logging.Logger:
    """Return a namespaced stdlib logger (``repro.<name>``)."""
    return _stdlib_logging.getLogger(f"repro.{name}")
