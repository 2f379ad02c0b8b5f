"""Fleet trace collection: stitch per-process spool files into one trace.

A live run spreads its spans over many OS processes: every
``repro serve`` replica write-throughs to its own JSONL spool file
(:meth:`Tracer.configure(spool=True) <repro.obs.tracer.Tracer.configure>`),
and the orchestrating process (harness, chaos proxy, client fleet)
keeps its spans in memory.  This module turns that pile of files into
one Perfetto-loadable trace:

- :func:`dump_process` writes the calling process's in-memory spans
  into the spool directory in the same meta-line-plus-spans format the
  live servers use;
- :func:`read_spool` parses one spool file into ``(meta, spans)``;
- :func:`stitch_dir` reads every spool file, aligns per-process clocks
  on the recorded epoch timestamps
  (:func:`repro.obs.export.align_spans`), and assigns each *process
  incarnation* (the meta line's unique ``proc`` prefix) its own
  synthetic pid -- so a SIGKILLed-and-restarted replica whose new
  process recycled a pid still renders as a distinct track;
- :func:`write_stitched` writes the stitched Chrome trace with
  per-replica track names and cross-process flow arrows.

Stitching never deletes the spool files -- the raw per-process JSONL
stays on disk as the archive (and the CI artifact).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.obs.export import align_spans, chrome_trace
from repro.obs.tracer import TRACER, SpanRecord, Tracer


@dataclass
class StitchedTrace:
    """One fleet's aligned spans plus per-process identity."""

    spans: list[SpanRecord] = field(default_factory=list)
    #: synthetic pid -> display name ("serve-us-east", "harness", ...)
    process_names: dict[int, str] = field(default_factory=dict)
    #: process-unique prefixes seen, in synthetic-pid order
    procs: list[str] = field(default_factory=list)

    def chrome(self) -> dict:
        return chrome_trace(self.spans, process_names=self.process_names)


def dump_process(
    spool_dir: str, name: str | None = None, tracer: Tracer | None = None
) -> str:
    """Write this process's collected spans into the spool directory.

    The orchestrator's counterpart of the servers' write-through mode:
    after a run it dumps its own in-memory spans (client fleet, chaos
    proxy, harness) so :func:`stitch_dir` sees every participant.
    Returns the file path written.
    """
    tracer = tracer or TRACER
    os.makedirs(spool_dir, exist_ok=True)
    if name is not None:
        tracer.process_name = name
    path = os.path.join(spool_dir, f"spans-{tracer.proc}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(tracer.spool_meta(), sort_keys=True) + "\n")
        for span in tracer.spans():
            handle.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
    return path


def read_spool(path: str) -> tuple[dict | None, list[SpanRecord]]:
    """One spool file -> ``(meta line or None, spans)``.

    Tolerates a torn final line (a process SIGKILLed mid-write): the
    damaged tail is dropped, everything before it is kept -- the same
    contract the commit log gives records.
    """
    meta: dict | None = None
    spans: list[SpanRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                blob = json.loads(line)
            except ValueError:
                break  # torn tail; spans before it are intact
            if "meta" in blob:
                meta = blob
                continue
            spans.append(SpanRecord.from_dict(blob))
    return meta, spans


def stitch_dir(spool_dir: str) -> StitchedTrace:
    """Merge every spool file in ``spool_dir`` into one aligned trace.

    Files are grouped by the meta line's process-unique ``proc``
    prefix and each group is renumbered onto a synthetic pid (ordered
    by epoch then prefix, so track order is deterministic and restart
    incarnations of one region appear in start order).  Timestamps are
    shifted onto the earliest process's timeline.
    """
    groups: list[tuple[dict | None, list[SpanRecord]]] = []
    if os.path.isdir(spool_dir):
        for entry in sorted(os.listdir(spool_dir)):
            if not entry.endswith(".jsonl"):
                continue
            try:
                meta, spans = read_spool(os.path.join(spool_dir, entry))
            except OSError:  # pragma: no cover - defensive
                continue
            if spans or meta:
                groups.append((meta, spans))

    def order(item: tuple[dict | None, list[SpanRecord]]):
        meta, _ = item
        if not meta:
            return (0, "")
        return (int(meta.get("epoch_unix_us", 0)), str(meta.get("proc", "")))

    groups.sort(key=order)
    stitched = StitchedTrace()
    renumbered: list[tuple[dict | None, list[SpanRecord]]] = []
    for index, (meta, spans) in enumerate(groups, start=1):
        # Synthetic pid per process *incarnation*: the OS may recycle
        # pids across a SIGKILL+restart, which would merge two
        # different processes into one Perfetto track.
        name = (meta or {}).get("name") or f"repro-{index}"
        stitched.process_names[index] = str(name)
        stitched.procs.append(str((meta or {}).get("proc", f"?{index}")))
        respanned = []
        for span in spans:
            clone = SpanRecord.from_dict(span.as_dict())
            clone.pid = index
            respanned.append(clone)
        renumbered.append((meta, respanned))
    stitched.spans = align_spans(renumbered)
    return stitched


def write_stitched(spool_dir: str, out_path: str) -> StitchedTrace:
    """Stitch ``spool_dir`` and write the Chrome trace to ``out_path``."""
    stitched = stitch_dir(spool_dir)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(stitched.chrome(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return stitched
