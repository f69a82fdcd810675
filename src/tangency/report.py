"""Machine-readable certificate reports.

Reports are single JSON documents on one line, written by the json
module's C encoder.  Every float is a JSON number written with Python's
shortest round-tripping repr, so re-parsing an emitted report reproduces
every margin bit for bit; strings stay strings.

A report may hold the stage certificates themselves: the encoder writes
each as its to_dict(), built when the encoder reaches it and dropped once
written, so the report's plain-dict tree is never built whole.
"""

from __future__ import annotations

import json


def _to_dict(obj):
    """The json encoder's hook for an object it cannot write: obj's
    to_dict(); TypeError for an object without one."""
    to_dict = getattr(obj, "to_dict", None)
    if to_dict is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return to_dict()


def dumps(report):
    return json.dumps(report, default=_to_dict)


def loads(text):
    return json.loads(text)

