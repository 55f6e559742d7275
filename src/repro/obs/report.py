"""Explain a run from its artifacts: ``python -m repro.obs.report <run dir>``.

A traced scheduler run leaves a family of sibling files behind —
``TRACE_*.json`` (the merged Chrome trace), ``METRICS_*.json`` (the registry
snapshot) and ``PROVENANCE_*.jsonl`` (the decision ledger).  This module
digests them into one human-readable report per run:

* the per-job **timeline narrative** (arrivals, placements, swaps,
  displacements, completions — the cluster-process instant events);
* the **top-k slowest spans** across both the virtual-time cluster timeline
  (``ph: "X"``) and the causal planning spans (``ph: "b"``/``"e"`` pairs);
* the **swap ledger**: every hot-swap evaluation, accept or reject, with
  the full margin arithmetic it was decided on;
* the **plan lineage table**: how each job's plan came to be — cold search,
  warm-started-from-*X* or exact cache hit.

Malformed provenance (a non-JSON line, a non-object, an event without its
``kind``) fails the run with a nonzero exit — this is the contract CI holds
``PROVENANCE_*`` artifacts to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .provenance import load_provenance

__all__ = ["discover_runs", "render_run", "render_report", "main"]

_US_PER_S = 1e6


# ---------------------------------------------------------------------- #
# Artifact discovery
# ---------------------------------------------------------------------- #
def discover_runs(run_dir: Path) -> List[Dict[str, Optional[Path]]]:
    """Group one directory's artifacts into runs.

    A run is anchored by its ``TRACE_<stem>.json`` and picks up the sibling
    ``METRICS_TRACE_<stem>.json`` / ``PROVENANCE_TRACE_<stem>.jsonl`` written
    next to it; provenance or metrics files without a matching trace become
    trace-less runs so nothing in the directory goes unvalidated.
    """
    runs: "Dict[str, Dict[str, Optional[Path]]]" = {}

    def _run(stem: str) -> Dict[str, Optional[Path]]:
        return runs.setdefault(
            stem, {"stem": stem, "trace": None, "metrics": None, "provenance": None}
        )

    for trace in sorted(run_dir.glob("TRACE_*.json")):
        if trace.name.startswith("METRICS_") or trace.name.startswith("PROVENANCE_"):
            continue
        _run(trace.stem)["trace"] = trace
    for metrics in sorted(run_dir.glob("METRICS_*.json")):
        _run(metrics.stem[len("METRICS_"):])["metrics"] = metrics
    for provenance in sorted(run_dir.glob("PROVENANCE_*.jsonl")):
        _run(provenance.stem[len("PROVENANCE_"):])["provenance"] = provenance
    return [runs[stem] for stem in sorted(runs)]


# ---------------------------------------------------------------------- #
# Trace digestion
# ---------------------------------------------------------------------- #
def _load_events(trace: Path) -> List[Dict[str, Any]]:
    data = json.loads(trace.read_text())
    events = data.get("traceEvents", data) if isinstance(data, dict) else data
    if not isinstance(events, list):
        raise ValueError(f"{trace}: not a Chrome trace (no traceEvents list)")
    return events


def _process_names(events: Sequence[Dict[str, Any]]) -> Dict[Any, str]:
    names: Dict[Any, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event.get("pid")] = str(event.get("args", {}).get("name", ""))
    return names


def _timeline_lines(events: Sequence[Dict[str, Any]], names: Dict[Any, str]) -> List[str]:
    """The cluster-process instant events as a chronological narrative."""
    entries: List[Tuple[float, str]] = []
    for event in events:
        if event.get("ph") != "i":
            continue
        if names.get(event.get("pid")) != "cluster":
            continue
        time_s = float(event.get("ts", 0.0)) / _US_PER_S
        detail = event.get("args", {}).get("detail", "")
        entry = f"  t={time_s:10.2f}s  {event.get('name', '?')}"
        if detail:
            entry += f" — {detail}"
        entries.append((time_s, entry))
    entries.sort(key=lambda pair: pair[0])
    return [entry for _, entry in entries]


def _slowest_spans(
    events: Sequence[Dict[str, Any]], names: Dict[Any, str], top_k: int
) -> List[str]:
    """Top-k durations over complete (``X``) and async (``b``/``e``) spans."""
    spans: List[Tuple[float, str, str]] = []
    open_async: Dict[Tuple[Any, Any], Dict[str, Any]] = {}
    for event in events:
        ph = event.get("ph")
        if ph == "X":
            duration_s = float(event.get("dur", 0.0)) / _US_PER_S
            spans.append(
                (duration_s, str(event.get("name", "?")), names.get(event.get("pid"), "?"))
            )
        elif ph == "b":
            open_async[(event.get("cat"), event.get("id"))] = event
        elif ph == "e":
            begin = open_async.pop((event.get("cat"), event.get("id")), None)
            if begin is None:
                continue
            duration_s = (float(event.get("ts", 0.0)) - float(begin.get("ts", 0.0))) / _US_PER_S
            spans.append(
                (duration_s, str(begin.get("name", "?")), names.get(begin.get("pid"), "?"))
            )
    spans.sort(key=lambda item: item[0], reverse=True)
    return [
        f"  {duration_s:10.3f}s  {name}  [{process}]"
        for duration_s, name, process in spans[:top_k]
    ]


# ---------------------------------------------------------------------- #
# Provenance digestion
# ---------------------------------------------------------------------- #
def _lineage_label(event: Dict[str, Any]) -> str:
    lineage = event.get("lineage", "unknown")
    if lineage == "hit":
        return "exact hit"
    if lineage == "warm":
        return f"warm-started-from-{event.get('seeded_from')}"
    return str(lineage)


def _swap_lines(events: Sequence[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    for event in events:
        if event.get("kind") != "swap":
            continue
        taken = event.get("outcome") == "taken"
        verdict = "ACCEPTED" if taken else "rejected"
        comparator = ">=" if taken else "<"
        line = (
            f"  t={float(event.get('time', 0.0)):10.2f}s  {event.get('job', '?')}: "
            f"{verdict} — planned {float(event.get('planned', 0.0)):.3f} s/iter vs "
            f"candidate {float(event.get('cost', 0.0)):.3f} + "
            f"switch {float(event.get('switch', 0.0)):.2f}s / "
            f"{float(event.get('remaining', 0.0)):.0f} iters left = "
            f"effective {float(event.get('effective', 0.0)):.3f}; "
            f"ratio {float(event.get('ratio', 0.0)):.3f} {comparator} "
            f"margin {float(event.get('threshold', 0.0)):.3f}"
        )
        if taken:
            line += f" (~{float(event.get('saved', 0.0)):.1f}s saved)"
        lines.append(line)
    return lines


def _lineage_lines(events: Sequence[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    for event in events:
        if event.get("kind") != "placement":
            continue
        fingerprint = event.get("fingerprint") or "?"
        lines.append(
            f"  t={float(event.get('time', 0.0)):10.2f}s  {event.get('job', '?')}: "
            f"{event.get('decision', 'placement')} on {event.get('partition', '?')} "
            f"→ {_lineage_label(event)} "
            f"({float(event.get('cost', 0.0)):.3f} s/iter, "
            f"fingerprint {str(fingerprint)[:16]})"
        )
    return lines


def _request_summary(events: Sequence[Dict[str, Any]]) -> List[str]:
    counts: Dict[str, int] = {}
    for event in events:
        if event.get("kind") != "plan_request":
            continue
        outcome = str(event.get("outcome", "?"))
        counts[outcome] = counts.get(outcome, 0) + 1
    if not counts:
        return []
    summary = ", ".join(f"{outcome}: {count}" for outcome, count in sorted(counts.items()))
    return [f"  plan requests — {summary}"]


# ---------------------------------------------------------------------- #
# Metrics digestion
# ---------------------------------------------------------------------- #
def _metrics_lines(metrics_path: Path) -> List[str]:
    data = json.loads(metrics_path.read_text())
    lines = [f"  schema version {data.get('schema_version', 1)}"]
    meta = data.get("meta", {})
    for key in sorted(meta):
        lines.append(f"  {key}: {meta[key]}")
    metrics = data.get("metrics", {})
    lines.append(f"  {len(metrics)} instruments recorded")
    return lines


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #
def render_run(run: Dict[str, Optional[Path]], top_k: int = 10) -> str:
    """Render one run's artifacts as a plain-text report section."""
    sections: List[str] = [f"== run {run['stem']} =="]
    provenance_events: List[Dict[str, Any]] = []
    if run["provenance"] is not None:
        provenance_events = load_provenance(run["provenance"])
    if run["trace"] is not None:
        events = _load_events(run["trace"])
        names = _process_names(events)
        timeline = _timeline_lines(events, names)
        if timeline:
            sections.append("-- timeline --")
            sections.extend(timeline)
        slowest = _slowest_spans(events, names, top_k)
        if slowest:
            sections.append(f"-- slowest spans (top {min(top_k, len(slowest))}) --")
            sections.extend(slowest)
    if provenance_events:
        swap_lines = _swap_lines(provenance_events)
        sections.append("-- swap ledger --")
        sections.extend(swap_lines if swap_lines else ["  (no swap decisions)"])
        lineage = _lineage_lines(provenance_events)
        sections.append("-- plan lineage --")
        sections.extend(lineage if lineage else ["  (no placements recorded)"])
        sections.extend(_request_summary(provenance_events))
    if run["metrics"] is not None:
        sections.append("-- metrics snapshot --")
        sections.extend(_metrics_lines(run["metrics"]))
    return "\n".join(sections)


def render_report(run_dir: Path, top_k: int = 10) -> str:
    """Render every run found in ``run_dir``; raises when there is none."""
    runs = discover_runs(run_dir)
    if not runs:
        raise FileNotFoundError(
            f"{run_dir}: no TRACE_*/METRICS_*/PROVENANCE_* artifacts found"
        )
    return "\n\n".join(render_run(run, top_k=top_k) for run in runs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Digest a run directory's TRACE/METRICS/PROVENANCE artifacts "
        "into a human-readable report.",
    )
    parser.add_argument("run_dir", type=Path, help="directory holding the artifacts")
    parser.add_argument(
        "--top-k", type=int, default=10, help="slowest spans to list per run"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the report here instead of stdout"
    )
    args = parser.parse_args(argv)
    if not args.run_dir.is_dir():
        print(f"error: {args.run_dir} is not a directory", file=sys.stderr)
        return 2
    try:
        report = render_report(args.run_dir, top_k=args.top_k)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n")
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
