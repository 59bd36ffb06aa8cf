"""Append-only JSONL result store — the resumability backbone.

Layout under ``<root>/<campaign name>/``:

* ``spec.json``    — the spec that owns this directory plus its hash;
  opening the store against a *different* spec raises
  :class:`SpecMismatchError` so incompatible results are never mixed.
* ``results.jsonl`` — one JSON record per trial *attempt*, appended and
  flushed as each attempt finishes.  A killed campaign therefore loses at
  most the in-flight trials; on re-run, trial IDs with an ``ok`` record
  are skipped.  A truncated final line (kill mid-write) is tolerated and
  ignored on load.
* ``summary.json`` / ``report.txt`` — written by :mod:`repro.campaign.report`.

Records are plain dicts with at minimum ``trial_id``, ``status``
(``ok`` | ``failed`` | ``timeout`` | ``crashed``), ``attempt``, ``seed``,
``seed_index``, ``params``, ``wall_time_s``, and (when ok) ``metrics``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set

from repro.campaign.spec import CampaignSpec, canonical_json

SPEC_FILE = "spec.json"
RESULTS_FILE = "results.jsonl"
SUMMARY_FILE = "summary.json"
REPORT_FILE = "report.txt"


class SpecMismatchError(RuntimeError):
    """The campaign directory belongs to a different spec."""


class ResultStore:
    """Resumable, append-only storage for one campaign's trial records."""

    def __init__(self, root: os.PathLike, spec: CampaignSpec) -> None:
        self.root = Path(root)
        self.spec = spec
        self.directory = self.root / spec.name
        self._handle = None
        # Successful trial IDs, built once by streaming the results file
        # at open() and maintained incrementally by append().  None until
        # open() runs (or a caller asks before opening, which falls back
        # to a one-off scan).
        self._completed: Optional[Set[str]] = None

    # ------------------------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.directory / SPEC_FILE

    @property
    def results_path(self) -> Path:
        return self.directory / RESULTS_FILE

    @property
    def summary_path(self) -> Path:
        return self.directory / SUMMARY_FILE

    @property
    def report_path(self) -> Path:
        return self.directory / REPORT_FILE

    # ------------------------------------------------------------------
    def open(self, fresh: bool = False) -> "ResultStore":
        """Create or attach to the campaign directory.

        ``fresh=True`` discards any existing results for this campaign
        name (spec change or explicit restart); otherwise an existing
        directory must carry the same spec hash.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if fresh:
            for name in (RESULTS_FILE, SUMMARY_FILE, REPORT_FILE, SPEC_FILE):
                path = self.directory / name
                if path.exists():
                    path.unlink()
            self._completed = set()
        if self.spec_path.exists():
            existing = json.loads(self.spec_path.read_text(encoding="utf-8"))
            if existing.get("spec_hash") != self.spec.spec_hash():
                raise SpecMismatchError(
                    f"campaign directory {self.directory} was created by spec "
                    f"{existing.get('spec_hash')}, current spec is "
                    f"{self.spec.spec_hash()}; use fresh=True (--fresh) to restart"
                )
        else:
            payload = dict(self.spec.to_dict(), spec_hash=self.spec.spec_hash())
            self.spec_path.write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
        # Streaming resume: build the seen-trial-id set one line at a
        # time (parse, extract, discard) rather than materializing the
        # parsed records, so a multi-generation store with 10^5+ attempt
        # records resumes in O(1) extra memory beyond the ID set itself
        # — and later completed_ids() calls never re-read the file.
        if self._completed is None:
            self._completed = self._scan_completed()
        return self

    def close(self) -> None:
        """Close the append handle (records stay on disk)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self.open()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Append one attempt record and flush it to disk immediately."""
        if self._handle is None:
            self._handle = open(self.results_path, "a+b")
            # A kill mid-append leaves a partial last line with no
            # newline; end it, or this record is glued onto it and lost.
            if self._handle.tell():
                self._handle.seek(-1, os.SEEK_END)
                if self._handle.read(1) != b"\n":
                    self._handle.write(b"\n")
        self._handle.write((canonical_json(record) + "\n").encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if self._completed is not None and record.get("status") == "ok":
            self._completed.add(record["trial_id"])

    def records(self) -> Iterator[Dict[str, Any]]:
        """All attempt records, oldest first; truncated tails are skipped."""
        if not self.results_path.exists():
            return
        with open(self.results_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    # A kill mid-append leaves a partial last line; that
                    # attempt is simply lost and will be re-run.
                    continue

    def _scan_completed(self) -> Set[str]:
        """One streaming pass over :meth:`records` for successful IDs."""
        return {r["trial_id"] for r in self.records() if r.get("status") == "ok"}

    def completed_ids(self) -> Set[str]:
        """Trial IDs that already have a successful record.

        Served from the set open() built (and append() maintains), so
        repeated calls — the sequential and evolutionary drivers ask
        once per round/generation — cost O(completed) for the returned
        copy, not a re-parse of the whole results file.
        """
        if self._completed is not None:
            return set(self._completed)
        return self._scan_completed()

    def ok_records(self) -> List[Dict[str, Any]]:
        """The first successful record per trial, ordered by trial ID.

        First-wins keeps aggregation deterministic even if a resumed run
        somehow duplicated a trial.
        """
        seen: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            if record.get("status") == "ok" and record["trial_id"] not in seen:
                seen[record["trial_id"]] = record
        return [seen[tid] for tid in sorted(seen)]

    def attempt_count(self) -> int:
        """Total attempt records on disk (for resume-semantics assertions)."""
        return sum(1 for _ in self.records())
