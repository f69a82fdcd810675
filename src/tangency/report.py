"""Machine-readable certificate reports.

Reports are single JSON documents on one line, written by the json
module's C encoder.  Every float is a JSON number written with Python's
shortest round-tripping repr, so re-parsing an emitted report reproduces
every margin bit for bit; strings stay strings.
"""

from __future__ import annotations

import json


def dumps(report):
    return json.dumps(report)


def loads(text):
    return json.loads(text)


def build_report(kind, config, stages, verdict, timings=None, failure=None,
                 extras=None):
    report = {
        "kind": kind,
        "config": config,
        "stages": stages,
        "verdict": verdict,
    }
    if timings is not None:
        report["timings"] = timings
    if failure is not None:
        report["failure"] = failure
    if extras:
        report.update(extras)
    return report
