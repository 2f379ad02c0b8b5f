"""Zero-overhead-when-disabled tracing core.

One process-global :class:`Tracer` (module singleton :data:`TRACER`)
collects *spans*: named intervals on the wall clock with nested
parent/child structure, free-form attributes, and the process/thread
that produced them.  Disabled -- the default -- every entry point
reduces to one attribute load and a branch, so instrumentation can sit
permanently on hot paths (the simulator's commit loop, the solver's
check calls) without measurable cost; the regression-gated
microbenchmark in ``tests/obs/test_overhead.py`` keeps that true.

Two usage forms::

    with TRACER.span("analysis.scan", round=3) as sp:
        ...                      # exceptions mark the span status=error
        sp.set(pairs=n)          # attach attributes mid-flight

    handle = TRACER.start("store.txn", replica=region)   # None if disabled
    ...
    TRACER.end(handle, op=op_name)

Span names use the repo-wide ``dotted.namespace`` convention; the first
segment (``analysis``, ``solver``, ``store``, ``sim``, ``client``)
becomes the Chrome-trace category.

**Server processes.**  Independently-started processes (live ``repro
serve`` replicas) call ``configure(..., spool=True)``: every span is
written through to a JSONL *spool file* as it closes (flushed per span,
so a SIGKILL loses nothing), and :mod:`repro.obs.collect` stitches the
files of a whole fleet into one trace after the run.

Every spool file begins with a *meta line* carrying the writing
process's identity: a process-unique prefix (:attr:`Tracer.proc`,
``pid-starttime``, which never collides even across pid reuse), a
display name, and the wall-clock instant of the tracer's monotonic
epoch (``epoch_unix_us``).  Each process timestamps spans against its
*own* monotonic epoch; the meta line is what lets the stitcher shift
every file onto one shared timeline (see
:func:`repro.obs.export.align_spans`).

Spans may carry ``flow_in`` / ``flow_out`` attributes naming a *flow
id*: a string shared by the producing and consuming span of one
cross-process hand-off (a client op and its server execution, a commit
and its remote apply).  The exporter turns them into Chrome-trace flow
events, which Perfetto renders as arrows between tracks.  Flow ids
minted per process (:meth:`Tracer.new_flow`) are namespaced by
:attr:`Tracer.proc`, so two independently-started processes can never
mint colliding ids.

This module is the single sanctioned home of wall-clock timing:
everything else imports :func:`monotonic` from here (enforced by
``tests/obs/test_no_bare_timing.py`` and the CI grep lint).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field

#: The one blessed wall-clock source (seconds, monotonic).  Instrumented
#: code imports this instead of touching ``time.perf_counter`` directly.
monotonic = time.perf_counter


@dataclass
class SpanRecord:
    """One finished span, ready for export."""

    name: str
    start_us: int
    dur_us: int
    pid: int
    tid: int
    attrs: dict = field(default_factory=dict)
    status: str = "ok"
    kind: str = "span"  # "span" | "instant"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
            "status": self.status,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "SpanRecord":
        return cls(
            name=blob["name"],
            start_us=int(blob["start_us"]),
            dur_us=int(blob["dur_us"]),
            pid=int(blob["pid"]),
            tid=int(blob["tid"]),
            attrs=dict(blob.get("attrs", {})),
            status=blob.get("status", "ok"),
            kind=blob.get("kind", "span"),
        )


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """A live (entered, not yet closed) span."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "status")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.status = "ok"
        self._start = monotonic()

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("exception", exc_type.__name__)
        self._tracer._close(self)
        return False


class Tracer:
    """Collects spans; cheap no-op while ``enabled`` is False."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._epoch = 0.0
        self.epoch_unix_us = 0
        self.process_name: str | None = None
        self._spool_dir: str | None = None
        self._spool_all = False
        self._spool_handle = None
        self._flow_seq = 0
        self._spans: list[SpanRecord] = []
        self._lock = threading.Lock()

    # -- configuration -------------------------------------------------------

    def configure(
        self,
        enabled: bool = True,
        spool_dir: str | None = None,
        spool: bool = False,
        process: str | None = None,
    ) -> None:
        """Switch tracing on (or off) and reset the collected trace.

        ``spool=True`` selects write-through mode for independently
        started processes (live servers): every span is appended to
        this process's spool file under ``spool_dir`` (default: a fresh
        temporary directory) as it closes instead of the in-memory
        list, flushed per span so even a SIGKILL loses nothing already
        recorded.  ``process`` names this process in the stitched trace
        (defaults to ``repro-<pid>``).
        """
        self._drop_spool_handle()
        self.enabled = enabled
        self._spool_all = bool(spool and enabled)
        self.process_name = process
        self._flow_seq = 0
        self._spans = []
        if enabled:
            self._epoch = monotonic()
            self.epoch_unix_us = int(time.time() * 1e6)
        self._spool_dir = None
        if self._spool_all:
            self._spool_dir = spool_dir or tempfile.mkdtemp(
                prefix="repro-obs-"
            )

    @property
    def proc(self) -> str:
        """Process-unique prefix: pid + the epoch's wall-clock instant.

        A recycled pid cannot collide (two processes sharing a pid
        never share a start microsecond), so spool file names, trace
        tracks and minted flow ids stay distinct across every process
        that ever participated in a run.
        """
        return f"{os.getpid()}-{self.epoch_unix_us:x}"

    def new_flow(self, hint: str = "flow") -> str | None:
        """Mint a process-unique flow id (``None`` while disabled).

        Use for hand-offs whose natural key is only process-local
        (e.g. anti-entropy round ids, which restart from zero in a
        recovered server); globally-keyed hand-offs (commit records)
        can use their natural ``origin:counter`` identity directly.
        """
        if not self.enabled:
            return None
        self._flow_seq += 1
        return f"{hint}:{self.proc}:{self._flow_seq}"

    def disable(self) -> None:
        """Stop tracing; already-collected spans stay readable."""
        self._drop_spool_handle()
        self.enabled = False

    # -- span API ------------------------------------------------------------

    def span(self, name: str, **attrs):
        """Context-manager span; the null singleton when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def start(self, name: str, **attrs) -> Span | None:
        """Explicit begin/end form for callback-shaped code paths.

        Returns ``None`` when disabled so hot paths pay one branch.
        """
        if not self.enabled:
            return None
        return Span(self, name, attrs)

    def end(self, span: Span | None, **attrs) -> None:
        if span is None:
            return
        if attrs:
            span.attrs.update(attrs)
        self._close(span)

    def instant(self, name: str, **attrs) -> None:
        """A zero-duration marker event."""
        if not self.enabled:
            return
        now_us = int((monotonic() - self._epoch) * 1e6)
        self._record(
            SpanRecord(
                name=name,
                start_us=now_us,
                dur_us=0,
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFFFFFF,
                attrs=attrs,
                kind="instant",
            )
        )

    # -- collection ----------------------------------------------------------

    def _close(self, span: Span) -> None:
        end = monotonic()
        self._record(
            SpanRecord(
                name=span.name,
                start_us=int((span._start - self._epoch) * 1e6),
                dur_us=int((end - span._start) * 1e6),
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFFFFFF,
                attrs=span.attrs,
                status=span.status,
            )
        )

    def _record(self, record: SpanRecord) -> None:
        if self._spool_all:
            # Write-through live server: spool to disk for the
            # stitcher to merge.
            self._spool(record)
            return
        with self._lock:
            self._spans.append(record)

    def spool_meta(self) -> dict:
        """The meta line identifying this process in a spool file."""
        return {
            "meta": 1,
            "proc": self.proc,
            "pid": os.getpid(),
            "name": self.process_name or f"repro-{os.getpid()}",
            "epoch_unix_us": self.epoch_unix_us,
        }

    def _spool(self, record: SpanRecord) -> None:
        handle = self._spool_handle
        if handle is None:
            path = os.path.join(
                self._spool_dir, f"spans-{self.proc}.jsonl"
            )
            handle = self._spool_handle = open(path, "a", encoding="utf-8")
            handle.write(
                json.dumps(self.spool_meta(), sort_keys=True) + "\n"
            )
        handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
        # Servers can be torn down without notice (SIGKILL); flush per
        # span so nothing is lost.
        handle.flush()

    def _drop_spool_handle(self) -> None:
        if self._spool_handle is not None:
            try:
                self._spool_handle.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._spool_handle = None

    # -- reading the trace ---------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """A snapshot of the spans collected in memory."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans = []


#: The process-global tracer every instrumented module shares.  Import
#: the object (not a copy of ``enabled``) so ``configure`` is seen
#: everywhere immediately.
TRACER = Tracer(enabled=False)


def configure(
    enabled: bool = True,
    spool_dir: str | None = None,
    spool: bool = False,
    process: str | None = None,
) -> Tracer:
    """Configure the global tracer and return it."""
    TRACER.configure(
        enabled=enabled, spool_dir=spool_dir, spool=spool, process=process
    )
    return TRACER

