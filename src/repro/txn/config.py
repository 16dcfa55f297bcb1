"""Commit-protocol configuration: policies, protocols, and tunables.

:class:`ProtocolConfig` gathers every tunable of the commit protocol —
most importantly the *commit policy*, which selects between the paper's
mechanism and the two baseline behaviours of section 2:

* ``POLYVALUE`` — a participant whose wait phase times out installs
  polyvalues and releases its locks (section 3.1);
* ``BLOCKING`` — the classic window-minimisation baseline: the
  participant keeps its locks and blocks the items until the outcome is
  learned (section 2.2);
* ``RELAXED`` — the relaxed-consistency baseline: the participant makes
  an arbitrary unilateral decision (section 2.3); the simulator records
  when that decision disagrees with the coordinator's.

Configuration is pure data: nothing here touches a clock, a network, or
a runtime, which is why the runtime redesign split it out of
:mod:`repro.txn.runtime` (the old import path still works through a
:class:`DeprecationWarning` shim).  Nor does it carry any fault
knob: the correctness harness's deliberate protocol bugs are armed on a
built system from outside the protocol code
(:mod:`repro.check.mutants`).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional

from repro.txn.timeouts import RetryPolicy, TimeoutPolicy


class CommitPolicy(enum.Enum):
    """What a participant does when its wait phase times out."""

    POLYVALUE = "polyvalue"
    BLOCKING = "blocking"
    RELAXED = "relaxed"


class CommitProtocol(enum.Enum):
    """Which atomic-commitment protocol the system runs.

    * ``TWO_PHASE`` — the paper's two-phase commit; the
      :class:`CommitPolicy` selects what a participant does when its
      wait phase times out (polyvalues, blocking, or relaxed).
    * ``PAXOS`` — Paxos Commit (Gray & Lamport, "Consensus on
      Transaction Commit"): each participant's prepared/aborted vote is
      decided by its own Paxos instance over 2F+1 acceptors, so the
      commit decision survives any F simultaneous faults and no site
      ever blocks on a single coordinator.
    * ``PATH_SENSITIVE`` — path-sensitive commit (after Soethout et
      al.'s local coordination avoidance): transactions whose outcome
      is invariant across serialization orders are detected by
      pre-analysis (:mod:`repro.txn.preanalysis` plus finite-difference
      probing) and decided locally without any coordination round;
      only the coordination-requiring residue runs two-phase commit.
    """

    TWO_PHASE = "two-phase"
    PAXOS = "paxos"
    PATH_SENSITIVE = "path-sensitive"


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables of the update protocol.

    All durations are in runtime seconds — simulated seconds on the sim
    kernel, wall-clock seconds on the live asyncio runtime.  The
    defaults suit a LAN-ish network (10 ms base latency): the protocol
    normally finishes in a few tens of milliseconds, so "promptly" —
    the paper's word for both participant and coordinator patience —
    defaults to half a second.
    """

    policy: CommitPolicy = CommitPolicy.POLYVALUE
    #: Participant patience in the compute phase: how long a site that
    #: acquired read locks waits for the coordinator's stage request (or
    #: abort) before discarding the transaction (Figure 1, compute→idle).
    compute_timeout: float = 0.5
    #: Participant patience in the wait phase: how long after sending
    #: *ready* a site waits for complete/abort before applying its
    #: policy (Figure 1, wait→idle with polyvalue installation).
    wait_timeout: float = 0.5
    #: Coordinator patience: how long it waits for all read replies, and
    #: then for all ready messages, before deciding to abort.
    ready_timeout: float = 0.4
    #: How often a site holding unresolved polyvalues (or blocked
    #: transactions) re-queries coordinators for outcomes.
    outcome_query_interval: float = 1.0
    #: RELAXED policy only: probability the unilateral decision is
    #: "complete" (the paper calls the choice arbitrary).
    relaxed_commit_probability: float = 1.0
    #: POLYVALUE policy: how many times a wait-phase participant asks
    #: the coordinator for the outcome (re-arming its timer) before
    #: giving up and installing polyvalues.  This implements the
    #: paper's §6 remark that "the polyvalue mechanism can be combined
    #: with other atomic distributed update protocols to decrease the
    #: chance that polyvalues will be created": transient hiccups (a
    #: lost complete message, a short partition) resolve within a retry
    #: or two, and only genuine outages produce polyvalues.  0 installs
    #: immediately at the first timeout, as in section 3.1.
    wait_query_retries: int = 0
    #: Cap on polytransaction fan-out (section 3.2 alternatives).
    max_alternatives: int = 1024
    #: How the three patience constants above are interpreted: the
    #: default fixed policy uses them verbatim (bit-for-bit replayable);
    #: an adaptive policy treats them as pre-sample fallbacks and feeds
    #: per-peer Jacobson RTT estimators into every timeout (see
    #: :mod:`repro.txn.timeouts`).
    timeout_policy: TimeoutPolicy = TimeoutPolicy()
    #: Bounded retransmission for the outcome-maintenance loop:
    #: per-destination exponential backoff with deterministic jitter
    #: and a down-peer suppression window.
    retry: RetryPolicy = RetryPolicy()
    #: Graceful-degradation valve (the paper's §6 hybrid): when set, a
    #: site already holding this many unresolved polyvalues answers new
    #: wait-phase timeouts with the BLOCKING policy instead of
    #: installing more — bounding in-doubt state under overload at the
    #: cost of availability on the affected items.  None disables.
    polyvalue_budget: Optional[int] = None
    #: Which commit protocol the system runs.  ``TWO_PHASE`` keeps the
    #: paper's protocol (modulated by :attr:`policy`); ``PAXOS`` and
    #: ``PATH_SENSITIVE`` select the bake-off peers.
    protocol: CommitProtocol = CommitProtocol.TWO_PHASE
    #: PAXOS only: the number of simultaneous acceptor faults the
    #: commit must survive.  The acceptor set has 2F+1 members drawn
    #: round-robin from the sites; None sizes F to the largest value
    #: the site count supports, ``(n_sites - 1) // 2``.
    paxos_fault_tolerance: Optional[int] = None
    #: PAXOS only: how long a wait-phase participant waits for the
    #: leader's decision before starting leader failover (running
    #: Phase 1 itself with a higher ballot).
    paxos_failover_timeout: float = 0.5

    @property
    def protocol_kind(self) -> str:
        """The oracle-dispatch name of this configuration's protocol.

        One of ``{"polyvalue", "blocking", "relaxed", "paxos",
        "pathsensitive"}`` — the same vocabulary the CLI's
        ``--protocol`` flag uses.  Oracles dispatch on this rather
        than on (protocol, policy) pairs.
        """
        if self.protocol is CommitProtocol.PAXOS:
            return "paxos"
        if self.protocol is CommitProtocol.PATH_SENSITIVE:
            return "pathsensitive"
        return self.policy.value


#: The CLI's ``--protocol`` vocabulary, in presentation order.
PROTOCOL_NAMES = (
    "polyvalue",
    "blocking",
    "relaxed",
    "paxos",
    "pathsensitive",
)

#: The protocols the live cluster can run: path-sensitive commit is
#: sim-only, because its apply log and routing queues are not part of
#: the durable snapshot.
LIVE_PROTOCOLS = ("polyvalue", "blocking", "relaxed", "paxos")


def config_for_protocol(
    name: str, base: Optional[ProtocolConfig] = None
) -> ProtocolConfig:
    """A :class:`ProtocolConfig` for one of the five ``--protocol`` names.

    *base* supplies every other tunable (timeouts, retry policy,
    budgets); only the (protocol, policy) pair is rewritten.  The
    path-sensitive residue path runs the polyvalue policy so its
    coordinated transactions inherit the paper's availability story.
    """
    base = base if base is not None else ProtocolConfig()
    if name == "polyvalue":
        return dataclasses.replace(
            base, protocol=CommitProtocol.TWO_PHASE,
            policy=CommitPolicy.POLYVALUE,
        )
    if name == "blocking":
        return dataclasses.replace(
            base, protocol=CommitProtocol.TWO_PHASE,
            policy=CommitPolicy.BLOCKING,
        )
    if name == "relaxed":
        return dataclasses.replace(
            base, protocol=CommitProtocol.TWO_PHASE,
            policy=CommitPolicy.RELAXED,
        )
    if name == "paxos":
        return dataclasses.replace(
            base, protocol=CommitProtocol.PAXOS,
            policy=CommitPolicy.BLOCKING,
        )
    if name == "pathsensitive":
        return dataclasses.replace(
            base, protocol=CommitProtocol.PATH_SENSITIVE,
            policy=CommitPolicy.POLYVALUE,
        )
    raise ValueError(
        f"unknown protocol {name!r}; expected one of {PROTOCOL_NAMES}"
    )
