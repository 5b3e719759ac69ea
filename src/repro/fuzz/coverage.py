"""Lightweight branch-ish coverage for the device model.

:class:`CoverageMap` is an invariant checker: the executor registers it
with the case's monitor, and it derives ``(site, token)`` hits from each
model event's kind and fields (``docs/invariants.md`` lists them), so
the model carries no coverage hook of its own.  The map counts per-case
hits per ``(site, token)`` pair, buckets the counts AFL-style (1, 2, 3,
4–7, 8–15, …), and treats each ``(site, token, bucket)`` triple as one
feature.  A case that produces a feature never seen before in the
campaign earns a corpus slot — that is the entire guidance signal.

The executor also probes a coarse ``state`` signature after each op
(queue-occupancy quartiles, busy engines, DevTLB occupancy), so reaching
a new *state* counts like reaching a new *branch*.

Serialization is sorted and JSON-stable: two campaigns with the same
seed persist byte-identical coverage.
"""

from __future__ import annotations

from typing import Any

from repro.invariants.monitor import InvariantChecker, InvariantMonitor


def bucket(count: int) -> int:
    """AFL-style hit-count bucket: exact to 3, then power-of-two bands."""
    if count <= 3:
        return count
    return count.bit_length() + 2


def _answer(monitor: InvariantMonitor, mode: str, accepted: bool) -> "tuple[str, str] | None":
    """The portal answer a submit to a *mode* queue returns, if any."""
    if mode == "dedicated":
        return ("portal.movdir64b", "accept" if accepted else "full")
    if monitor.device.config.dmwr_privileged:
        # The privileged-DMWr path retries inside its slot and always
        # reads ZF=0: no answer reaches the portal.
        return None
    return ("portal.enqcmd", "accept" if accepted else "retry")


class CoverageMap(InvariantChecker):
    """The campaign-global seen-feature set plus per-case counters."""

    def __init__(self) -> None:
        self._seen: "set[tuple[str, str, int]]" = set()
        self._case: "dict[tuple[str, str], int]" = {}
        self.cases = 0

    # -- probing --------------------------------------------------------
    def probe(self, site: str, token: str) -> None:
        """One hit at *site*/*token*."""
        key = (site, token)
        self._case[key] = self._case.get(key, 0) + 1

    def observe(
        self,
        monitor: InvariantMonitor,
        kind: str,
        timestamp: int,
        context: "dict[str, Any]",
        payload: Any,
    ) -> None:
        """Derive the event's ``(site, token)`` hits from its fields."""
        probe = self.probe
        if kind == "submit":
            accepted = context["accepted"]
            fill = f"q{context['quartile']}" if accepted else "full"
            probe("wq.enqueue", f"{context['mode']}:{fill}")
            answer = _answer(monitor, context["mode"], accepted)
            if answer is not None:
                probe(*answer)
        elif kind == "submit-error":
            # The accepted submission's dispatch pass raised, so the
            # portal never saw the answer its submit event counted.
            answer = _answer(monitor, context["mode"], True)
            if answer is not None:
                self._case[answer] -= 1
        elif kind == "devtlb":
            if context["outcome"] != "fill":
                probe("engine.stream", f"{context['field']}:{context['span']}")
                probe("devtlb.access", f"{context['field']}:{context['outcome']}")
        elif kind == "dispatch":
            if "opcode" in context:
                probe("engine.execute", context["opcode"].lower())
        elif kind == "translate":
            probe("ats.translate", context["outcome"])
        elif kind == "prs":
            probe("ats.translate", "prs-retry")
            probe("ats.prs", context["outcome"])
        elif kind == "fault":
            probe("engine.fault", context["cause"])
        elif kind == "drain":
            probe("wq.drain", "aborted" if context["aborted"] else "empty")
        elif kind == "reject":
            instruction = context["instruction"]
            reject = "dedicated" if instruction == "enqcmd" else "shared"
            probe(f"portal.{instruction}", f"{reject}-reject")
        elif kind == "timeout":
            probe("portal.wait", "timeout")

    # -- case lifecycle -------------------------------------------------
    def begin_case(self) -> None:
        """Reset the per-case counters."""
        self._case = {}

    def end_case(self) -> int:
        """Fold the case into the global set; return new-feature count."""
        new = 0
        for (site, token), count in self._case.items():
            feature = (site, token, bucket(count))
            # A withdrawn portal answer can leave a zero count: no hit.
            if count and feature not in self._seen:
                self._seen.add(feature)
                new += 1
        self._case = {}
        self.cases += 1
        return new

    @property
    def features(self) -> int:
        """Total distinct features observed so far."""
        return len(self._seen)

    def sites(self) -> "dict[str, int]":
        """Feature counts grouped by site (for the report)."""
        out: "dict[str, int]" = {}
        for site, _token, _bucket in self._seen:
            out[site] = out.get(site, 0) + 1
        return dict(sorted(out.items()))

    # -- persistence ----------------------------------------------------
    def to_json(self) -> "dict[str, Any]":
        """Sorted, JSON-stable form for ``state.json``."""
        return {
            "cases": self.cases,
            "features": sorted(
                f"{site}|{token}|{level}" for site, token, level in self._seen
            ),
        }

    @classmethod
    def from_json(cls, raw: "dict[str, Any]") -> "CoverageMap":
        """Rebuild a map persisted by :meth:`to_json`."""
        cov = cls()
        cov.cases = int(raw.get("cases", 0))
        for entry in raw.get("features", []):
            site, token, level = entry.rsplit("|", 2)
            cov._seen.add((site, token, int(level)))
        return cov
