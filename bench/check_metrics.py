#!/usr/bin/env python3
"""Validate pmtest live observability outputs in CI.

Three modes, one per output format:

  --prom FILE    Prometheus text exposition scraped from /metrics:
                 every line must parse, and the gauge/rate families
                 the dashboard depends on must be present.
  --json FILE    pmtest-metrics-v1 document (from /metrics.json with
                 --live, or a --metrics-json file without it).
  --events FILE  structured JSONL event log from --event-log: every
                 record must carry the envelope fields, and a
                 completed run must be bracketed by run_start and
                 run_stop.

Exits non-zero with a message on the first violation.
"""

import argparse
import json
import re
import sys

SAMPLE_RE = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*'         # metric name
    r'(\{[^{}]*\})?'                     # optional label set
    r' -?[0-9.eE+]+(inf|nan)?$'          # sample value
)

REQUIRED_PROM = [
    "pmtest_snapshot_nanoseconds",
    "pmtest_traces_checked_total",
    "pmtest_pool_inflight_traces",
    "pmtest_pool_queued_traces",
    "pmtest_ingest_traces_consumed",
    "pmtest_ingest_bytes_consumed",
    "pmtest_process_resident_bytes",
    "pmtest_traces_checked_per_second",
    "pmtest_ingest_bytes_per_second",
]

EVENT_ENVELOPE = ["ts_ms", "mono_ns", "severity", "type"]


def fail(msg):
    print(f"check_metrics: {msg}", file=sys.stderr)
    sys.exit(1)


def check_prom(path):
    names = set()
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if not SAMPLE_RE.match(line):
                fail(f"{path}:{lineno}: unparsable sample: {line!r}")
            names.add(re.split(r"[ {]", line, 1)[0])
    for required in REQUIRED_PROM:
        if required not in names:
            fail(f"{path}: missing metric family {required}")
    print(f"{path}: {len(names)} metric families OK")


def check_json(path, live):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "pmtest-metrics-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}")
    if live:
        if doc.get("live") is not True:
            fail(f"{path}: expected a live document")
        if not isinstance(doc.get("snapshot_ns"), int):
            fail(f"{path}: snapshot_ns missing or not an integer")
        gauges = doc.get("gauges")
        if not isinstance(gauges, dict):
            fail(f"{path}: gauges object missing")
        pool = gauges.get("pool", {})
        for key in ("in_flight", "queued"):
            if key not in pool:
                fail(f"{path}: gauges.pool.{key} missing")
        ingest = gauges.get("ingest", {})
        for key in ("traces_consumed", "bytes_consumed", "sources"):
            if key not in ingest:
                fail(f"{path}: gauges.ingest.{key} missing")
        process = gauges.get("process", {})
        if process.get("rss_bytes", 0) <= 0:
            fail(f"{path}: gauges.process.rss_bytes not positive")
        rates = doc.get("rates")
        if not isinstance(rates, dict) or \
                "traces_checked_per_sec" not in rates:
            fail(f"{path}: rates.traces_checked_per_sec missing")
        if "counters" not in doc.get("telemetry", {}):
            fail(f"{path}: telemetry.counters missing")
    print(f"{path}: pmtest-metrics-v1 OK" + (" (live)" if live else ""))


def check_events(path):
    types = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: invalid JSON: {e}")
            for key in EVENT_ENVELOPE:
                if key not in record:
                    fail(f"{path}:{lineno}: missing {key!r}")
            if record["severity"] not in ("info", "warn", "error"):
                fail(f"{path}:{lineno}: bad severity "
                     f"{record['severity']!r}")
            if record["type"] == "finding":
                for key in ("verdict", "kind", "trace_id", "op_index"):
                    if key not in record:
                        fail(f"{path}:{lineno}: finding missing "
                             f"{key!r}")
            types.append(record["type"])
    if not types:
        fail(f"{path}: no events")
    if types[0] != "run_start":
        fail(f"{path}: first event is {types[0]!r}, not run_start")
    if "run_stop" not in types:
        fail(f"{path}: no run_stop event")
    print(f"{path}: {len(types)} events OK "
          f"({len(set(types))} distinct types)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prom", help="Prometheus exposition file")
    parser.add_argument("--json", dest="json_path",
                        help="pmtest-metrics-v1 document")
    parser.add_argument("--live", action="store_true",
                        help="require the live gauges in --json")
    parser.add_argument("--events", help="JSONL event log")
    args = parser.parse_args()
    if not (args.prom or args.json_path or args.events):
        parser.error("nothing to check")
    if args.prom:
        check_prom(args.prom)
    if args.json_path:
        check_json(args.json_path, args.live)
    if args.events:
        check_events(args.events)


if __name__ == "__main__":
    main()
