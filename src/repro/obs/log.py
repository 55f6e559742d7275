"""Structured logging for the ``repro.*`` logger hierarchy.

All subsystems log through children of the ``repro`` logger —
``repro.service``, ``repro.search``, ``repro.sched``, ``repro.sim`` — so one
handler configuration controls the whole stack.  Two environment knobs:

``REPRO_LOG_LEVEL``
    Root level of the hierarchy (``debug``/``info``/``warning``/``error``/
    ``critical``; default ``warning``, so instrumented paths are silent
    unless asked).
``REPRO_LOG_FORMAT``
    ``text`` (default, human-readable single lines) or ``json`` (one JSON
    object per line: ``ts``, ``level``, ``logger``, ``message`` plus any
    ``extra=`` fields — machine-parseable for log pipelines).

:func:`get_logger` lazily configures the hierarchy on first use and returns
the per-subsystem child logger; :func:`configure_logging` reconfigures
explicitly (tests, embedding applications).  The ``repro`` root does not
propagate to the global root logger, so applications embedding the library
keep full control of their own logging.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, Dict, Optional, TextIO

from .. import knobs

__all__ = ["ROOT_LOGGER_NAME", "get_logger", "configure_logging", "JsonFormatter"]

ROOT_LOGGER_NAME = "repro"

# Attributes every LogRecord carries; anything else came in via ``extra=``
# and is emitted as a structured field by the JSON formatter.
_STANDARD_ATTRS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}

_configured = False


class JsonFormatter(logging.Formatter):
    """One JSON object per line: timestamp, level, logger, message, extras."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in record.__dict__.items():
            if key not in _STANDARD_ATTRS and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def configure_logging(
    level: Optional[str] = None,
    fmt: Optional[str] = None,
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger hierarchy; returns its root.

    Explicit arguments win over the ``REPRO_LOG_LEVEL``/``REPRO_LOG_FORMAT``
    environment knobs.  The hierarchy gets exactly one stream handler
    (default ``sys.stderr``) and stops propagating to the global root.
    """
    global _configured
    level = level or knobs.get("REPRO_LOG_LEVEL")
    fmt = fmt or knobs.get("REPRO_LOG_FORMAT")
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.setLevel(level.upper())
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    if fmt.lower() == "json":
        handler.setFormatter(JsonFormatter())
    else:
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s %(levelname)s %(name)s: %(message)s",
                datefmt="%H:%M:%S",
            )
        )
    root.handlers[:] = [handler]
    root.propagate = False
    _configured = True
    return root


def get_logger(subsystem: str = "") -> logging.Logger:
    """The ``repro.<subsystem>`` child logger, configuring lazily on first use.

    An application that configured the ``repro`` logger itself (any handler
    attached before the first call) is left alone.
    """
    global _configured
    if not _configured:
        _configured = True
        if not logging.getLogger(ROOT_LOGGER_NAME).handlers:
            configure_logging()
    name = f"{ROOT_LOGGER_NAME}.{subsystem}" if subsystem else ROOT_LOGGER_NAME
    return logging.getLogger(name)
