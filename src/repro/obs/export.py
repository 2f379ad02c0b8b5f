"""Trace exporters: Chrome trace-event JSON and a summary table.

Two views of the same span list (the JSONL archive format -- one
:class:`~repro.obs.tracer.SpanRecord` per line -- is the spool's, see
:mod:`repro.obs.collect`):

- :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event format (``{"traceEvents": [...]}`` with complete ``"X"``
  events), loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``; each process renders as its own track;
- :func:`summarize` -- an aligned per-span-name table (count, total,
  mean, max wall time) for terminal output.

Cross-process traces add two features:

- **Clock alignment** (:func:`align_spans`): each process timestamps
  spans against its own monotonic epoch, so raw multi-process files
  interleave nonsensically.  Every spool file's meta line records the
  wall-clock instant of that epoch (the handshake timestamp all
  processes share via ``time.time``); aligning shifts each process's
  spans by its epoch offset from the earliest one, producing a single
  consistent timeline.
- **Flow events**: spans carrying ``flow_out`` / ``flow_in``
  attributes (a shared flow-id string) additionally emit Chrome
  ``ph:"s"`` / ``ph:"f"`` events, which Perfetto draws as arrows from
  the producing slice to the consuming slice -- client op to server
  execution, commit to remote apply -- across process tracks.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.obs.tracer import SpanRecord


def align_spans(
    groups: Iterable[tuple[dict | None, Sequence[SpanRecord]]],
) -> list[SpanRecord]:
    """Shift per-process span groups onto one shared timeline.

    ``groups`` pairs each process's spool *meta* (carrying
    ``epoch_unix_us``, the wall-clock instant of that process's
    monotonic epoch) with its spans.  Spans are shifted by their
    process's epoch offset from the earliest epoch present, so a span
    that started later in wall-clock time sorts later in the aligned
    trace regardless of which process recorded it.  Groups without a
    meta (legacy spool files) are left unshifted.  Returns new
    records, sorted by ``(start_us, pid, tid, name)``.
    """
    grouped = [(meta, list(spans)) for meta, spans in groups]
    epochs = [
        int(meta["epoch_unix_us"])
        for meta, _ in grouped
        if meta and "epoch_unix_us" in meta
    ]
    base = min(epochs) if epochs else 0
    aligned: list[SpanRecord] = []
    for meta, spans in grouped:
        offset = (
            int(meta["epoch_unix_us"]) - base
            if meta and "epoch_unix_us" in meta
            else 0
        )
        for span in spans:
            shifted = SpanRecord.from_dict(span.as_dict())
            shifted.start_us += offset
            aligned.append(shifted)
    aligned.sort(key=lambda s: (s.start_us, s.pid, s.tid, s.name))
    return aligned


def chrome_trace(
    spans: Sequence[SpanRecord],
    process_names: dict[int, str] | None = None,
) -> dict:
    """Spans -> Chrome trace-event document (Perfetto-loadable).

    The category of each event is the first segment of the dotted span
    name (``analysis``, ``solver``, ``store``, ...), so Perfetto's
    category filter separates the layers.  ``process_names`` labels
    the per-pid tracks (the fleet stitcher passes region names).

    Spans with ``flow_out`` / ``flow_in`` attributes emit flow start
    (``ph:"s"``) and finish (``ph:"f"``, bound to the enclosing slice)
    events sharing the flow id, so Perfetto draws cross-track arrows;
    instant markers (:meth:`Tracer.instant`) emit thread-scoped
    ``ph:"i"`` events.
    """
    names = process_names or {}
    events: list[dict] = []
    seen_pids: set[int] = set()
    for span in spans:
        if span.pid not in seen_pids:
            seen_pids.add(span.pid)
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": span.pid,
                    "tid": 0,
                    "args": {
                        "name": names.get(span.pid, f"repro[{span.pid}]")
                    },
                }
            )
        args = dict(span.attrs)
        if span.status != "ok":
            args["status"] = span.status
        if span.kind == "instant":
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "i",
                    "s": "t",
                    "ts": span.start_us,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": span.start_us,
                "dur": span.dur_us,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
        flow_out = span.attrs.get("flow_out")
        if flow_out:
            events.append(
                {
                    "name": "flow",
                    "cat": "flow",
                    "ph": "s",
                    "id": str(flow_out),
                    # Emitted at the slice start so the event always
                    # falls inside the producing slice.
                    "ts": span.start_us,
                    "pid": span.pid,
                    "tid": span.tid,
                }
            )
        flow_in = span.attrs.get("flow_in")
        if flow_in:
            events.append(
                {
                    "name": "flow",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": str(flow_in),
                    "ts": span.start_us,
                    "pid": span.pid,
                    "tid": span.tid,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[SpanRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle, indent=1, sort_keys=True)
        handle.write("\n")


def summarize(spans: Sequence[SpanRecord]) -> str:
    """Aligned per-name table: count, total/mean/max wall milliseconds."""
    if not spans:
        return "(no spans recorded)"
    rows: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for span in spans:
        rows.setdefault(span.name, []).append(span.dur_us / 1000.0)
        if span.status != "ok":
            errors[span.name] = errors.get(span.name, 0) + 1
    header = (
        f"{'span':<32} {'count':>7} {'total ms':>10} "
        f"{'mean ms':>9} {'max ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted(rows, key=lambda n: -sum(rows[n])):
        durations = rows[name]
        total = sum(durations)
        suffix = f"  ({errors[name]} error(s))" if name in errors else ""
        lines.append(
            f"{name:<32} {len(durations):>7} {total:>10.2f} "
            f"{total / len(durations):>9.3f} {max(durations):>9.2f}"
            f"{suffix}"
        )
    lines.append(
        f"{len(spans)} span(s), "
        f"{len({(s.pid, s.tid) for s in spans})} track(s), "
        f"{len({s.pid for s in spans})} process(es)"
    )
    return "\n".join(lines)
