"""Differential order oracle for the scheduler's ready queue.

The production scheduler selects the next event from a lazy-invalidation
heap with run-ahead; its contract is that it makes *exactly* the choice
the original O(P) linear scan made at every event.  The scan is kept
here as the reference (``LinearScanSimulator``), and both are driven
over Hypothesis-generated rank programs: the ``(rank, op kind,
clock-after)`` sequences, returns, clocks, metrics and failure
diagnostics must be identical.

The nightly CI job runs this file with ``--hypothesis-profile=nightly``
(10x the examples, see ``conftest.py``).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    Simulator,
)
from repro.machine.faults import FaultPlan, FaultSpec, RankFailure
from repro.machine.metrics import RankMetrics

# Every cost is a multiple of 1e-4 s (1e6 B/s, zero overheads), so equal
# (time) ties across ranks are the common case, not the rare one.
LATENCY = 1e-4


def machine(nodes):
    net = NetworkSpec(
        LATENCY, 1e6, overhead=0.0, poll_overhead=1e-4, self_copy=1e-6
    )
    return MachineSpec("order", nodes, NodeSpec(1e6), net)


class LinearScanSimulator(Simulator):
    """The pre-heap scheduler: rescan every rank before every event."""

    def _run_events(self, states):
        events = 0
        while True:
            best = best_key = None
            for s in states:
                if not s.alive:
                    continue
                if s.blocked_on is None:
                    key = (s.clock, s.rank)
                else:
                    # recv is the one-pattern case of waitany.
                    arrivals = [
                        m.arrival_time
                        for m in s.mailbox.pending()
                        if any(m.matches(*p) for p in s.blocked_on)
                    ]
                    if not arrivals:
                        continue  # blocked, not wakeable yet
                    key = (max(s.clock, min(arrivals)), s.rank)
                if best_key is None or key < best_key:
                    best, best_key = s, key
            if best is None:
                if self._kill_overdue(states):
                    continue
                break
            if best.fault_time is not None and best_key[0] >= best.fault_time:
                self._kill(best, max(best.clock, best.fault_time))
                continue
            events += 1
            self._step(best)
        self.events = events


# ----------------------------------------------------------------------
# scripted rank programs


def play(comm, script):
    """Execute one rank's op list; returns everything it observed."""
    seen = []
    for op in script:
        kind = op[0]
        if kind == "compute":
            yield from comm.elapse(op[1])
        elif kind == "send":
            _, dst, tag, nbytes = op
            yield from comm.send(dst, tag, (comm.rank, tag, len(seen)), nbytes)
        elif kind == "recv":
            payload, status = yield from comm.recv(op[1], op[2])
            seen.append((payload, status.source, status.tag))
        elif kind == "tryrecv":
            msg = yield from comm._tryrecv(op[1], op[2])
            seen.append(None if msg is None else msg.payload)
        elif kind == "drain":
            got = yield from comm.drain_recv(op[1], op[2])
            seen.append([payload for payload, _ in got])
        elif kind == "iprobe":
            seen.append((yield from comm.iprobe(op[1], op[2])))
        elif kind == "waitany":
            seen.append((yield from comm.waitany(op[1])))
        elif kind == "set_phase":
            seen.append((yield from comm.set_phase(op[1])))
        else:
            seen.append((yield from comm.now()))
    return seen


@dataclasses.dataclass
class Case:
    scripts: list
    #: Per-rank start clocks, carried in as ``RankMetrics`` rows.
    clocks: list | None = None
    faults: tuple = ()


def outcome(sim_cls, case):
    """Run ``case`` on ``sim_cls``; everything observable about the run."""
    log = []
    rows = None
    if case.clocks is not None:
        rows = [
            RankMetrics(rank, final_clock=clock)
            for rank, clock in enumerate(case.clocks)
        ]
    sim = sim_cls(
        machine(len(case.scripts)),
        fault_plan=FaultPlan(case.faults),
        initial_metrics=rows,
    )
    dispatch, complete, kill = sim._dispatch, sim._complete_recv, sim._kill
    woke = sim._complete_waitany

    def logged_dispatch(state, op):
        dispatch(state, op)
        log.append((state.rank, op[0], state.clock))

    def logged_complete(state, msg):
        complete(state, msg)
        log.append((state.rank, "matched", msg.seq, state.clock))

    def logged_woke(state):
        woke(state)
        log.append((state.rank, "woke", state.send_value, state.clock))

    def logged_kill(state, time):
        kill(state, time)
        log.append((state.rank, "kill", time))

    sim._dispatch = logged_dispatch
    sim._complete_recv = logged_complete
    sim._kill = logged_kill
    sim._complete_waitany = logged_woke
    for script in case.scripts:
        sim.spawn(play, script)
    try:
        res = sim.run(raise_on_failure=False)
        end = ("done", res.returns, res.elapsed, res.failed_ranks)
    except DeadlockError as exc:
        end = ("deadlock", str(exc))
    except RankFailure as exc:
        end = (
            "failure", str(exc), exc.failed, exc.time, exc.blocked,
            exc.completed, exc.nranks,
        )
    return {
        "log": log,
        "end": end,
        "events": sim.events,
        "dropped": sim.dropped_messages,
        "clocks": [s.clock for s in sim._states],
        "metrics": [s.metrics for s in sim._states],
    }


def assert_same_order(case):
    new = outcome(Simulator, case)
    ref = outcome(LinearScanSimulator, case)
    assert new["log"] == ref["log"]
    assert new == ref
    return new


# ----------------------------------------------------------------------
# generated program sets

TIMES = st.sampled_from([0.0, 1e-4, 2e-4, 5e-4, 1e-3])
TAGS = st.integers(0, 2)
SIZES = st.sampled_from([0, 100, 300])


@st.composite
def cases(draw):
    n = draw(st.integers(2, 9))
    ranks = st.integers(0, n - 1)
    sources = st.one_of(st.just(ANY_SOURCE), ranks)
    tags = st.one_of(st.just(ANY_TAG), TAGS)
    patterns = st.lists(
        st.tuples(sources, tags), min_size=1, max_size=3
    ).map(tuple)
    filler = st.one_of(
        st.tuples(st.just("compute"), TIMES),
        st.tuples(st.just("tryrecv"), sources, tags),
        st.tuples(st.just("drain"), sources, tags),
        st.tuples(st.just("iprobe"), sources, tags),
        st.tuples(st.just("set_phase"), st.sampled_from(["a", "b"])),
        st.tuples(st.just("now")),
        # Unpaired traffic: sends nobody waits for, receives that may
        # never match (deadlock / rank-failure diagnostics).
        st.tuples(st.just("send"), ranks, TAGS, SIZES),
        st.tuples(st.just("recv"), sources, tags),
        st.tuples(st.just("waitany"), patterns),
    )
    scripts = [draw(st.lists(filler, max_size=6)) for _ in range(n)]
    # Paired traffic (self-sends included): each message gets its send
    # and a receive able to match it, both at drawn positions.
    for _ in range(draw(st.integers(0, 12))):
        src, dst, tag = draw(ranks), draw(ranks), draw(TAGS)
        send = ("send", dst, tag, draw(SIZES))
        match = (
            draw(st.sampled_from([src, ANY_SOURCE])),
            draw(st.sampled_from([tag, ANY_TAG])),
        )
        if draw(st.booleans()):
            recv = ("recv",) + match
        else:
            # ... or a waitany it can wake, the matching pattern at a
            # drawn position among decoys (nothing is consumed: the
            # message stays for whatever the script does next).
            decoys = draw(st.lists(st.tuples(sources, tags), max_size=2))
            decoys.insert(draw(st.integers(0, len(decoys))), match)
            recv = ("waitany", tuple(decoys))
        for script, op in ((scripts[src], send), (scripts[dst], recv)):
            script.insert(draw(st.integers(0, len(script))), op)
    clocks = draw(st.none() | st.lists(TIMES, min_size=n, max_size=n))
    fault = st.builds(FaultSpec, rank=ranks, time=TIMES) | st.builds(
        FaultSpec, rank=ranks, phase_index=st.integers(0, 3)
    )
    faults = tuple(draw(st.lists(fault, max_size=2)))
    return Case(scripts, clocks, faults)


@settings(deadline=None)
@given(cases())
def test_ready_queue_matches_linear_scan(case):
    assert_same_order(case)


# ----------------------------------------------------------------------
# pinned examples: the cases the heap can get wrong


def arrival(sent_at, nbytes):
    """Arrival time of a message whose injection started at ``sent_at``."""
    return sent_at + nbytes / 1e6 + LATENCY


def matched(out, rank):
    """``(message seq, clock-after)`` of every receive ``rank`` completed."""
    return [e[2:] for e in out["log"] if e[0] == rank and e[1] == "matched"]


class TestPinned:
    def test_later_injection_arriving_earlier_rekeys_parked_rank(self):
        # Rank 0 parks at t=0.  Rank 1's 300 B message is injected first
        # (arrival 4e-4); rank 2's empty one is injected second but
        # arrives first (1e-4) and must lower rank 0's wake time.
        out = assert_same_order(Case([
            [("recv", ANY_SOURCE, 0), ("recv", ANY_SOURCE, 0)],
            [("send", 0, 0, 300)],
            [("send", 0, 0, 0)],
        ]))
        assert matched(out, 0) == [(1, arrival(0, 0)), (0, arrival(0, 300))]

    def test_later_arrival_does_not_rekey_wakeable_rank(self):
        # The mirror image: rank 0 is already wakeable at 1e-4 when the
        # slow message is injected; re-keying with the *new* arrival
        # would wake it late — after rank 3 reads its clock at 2e-4.
        out = assert_same_order(Case([
            [("recv", ANY_SOURCE, 0), ("recv", ANY_SOURCE, 0)],
            [("send", 0, 0, 0)],
            [("send", 0, 0, 300)],
            [("compute", 2e-4), ("now",)],
        ]))
        assert matched(out, 0) == [(0, arrival(0, 0)), (1, arrival(0, 300))]
        log = out["log"]
        assert log.index((0, "matched", 0, arrival(0, 0))) < log.index(
            (3, "now", 2e-4)
        )

    def test_non_matching_message_leaves_rank_parked(self):
        # Rank 0 waits for (src 1, tag 1).  Rank 2's tag-2 message must
        # not wake it; rank 1's message, sent at 1e-3, does.
        out = assert_same_order(Case([
            [("recv", 1, 1), ("now",)],
            [("compute", 1e-3), ("send", 0, 1, 0)],
            [("send", 0, 2, 0)],
        ]))
        assert matched(out, 0) == [(1, arrival(1e-3, 0))]
        assert out["end"][0] == "done"

    def test_message_for_a_later_pattern_rekeys_parked_waitany(self):
        # Rank 0 parks on two patterns.  Rank 2's message matches the
        # *second* one and must wake it at 1e-4 with exactly that index
        # ready — long before rank 1 serves the first pattern.
        out = assert_same_order(Case([
            [("waitany", ((1, 0), (2, 1))), ("now",), ("drain", 2, 1)],
            [("compute", 1e-3), ("send", 0, 0, 0)],
            [("send", 0, 1, 0)],
        ]))
        assert (0, "woke", (1,), arrival(0, 0)) in out["log"]
        # Nothing was consumed by the wait: the drain still gets it.
        assert out["end"][1][0] == [(1,), arrival(0, 0), [(2, 1, 0)]]

    def test_message_matching_no_pattern_leaves_waitany_parked(self):
        # Same wait; rank 2 now sends (src 2, tag 0) and (src 2, tag 2):
        # each matches half of a pattern, neither matches one.  Rank 0
        # sleeps until rank 1's message arrives.
        out = assert_same_order(Case([
            [("waitany", ((1, 0), (2, 1))), ("now",)],
            [("compute", 1e-3), ("send", 0, 0, 0)],
            [("send", 0, 0, 0), ("send", 0, 2, 0)],
        ]))
        assert [e for e in out["log"] if e[1] == "woke"] == [
            (0, "woke", (0,), arrival(1e-3, 0))
        ]
        assert out["end"][1][0] == [(0,), arrival(1e-3, 0)]

    def test_kill_of_parked_rank(self):
        # Rank 0 parks forever; its time fault is enacted once the
        # machine idles, at the wavefront (rank 1's final clock).
        out = assert_same_order(Case(
            [[("recv", 1, 0)], [("compute", 1e-3)]],
            faults=(FaultSpec(0, time=5e-4),),
        ))
        assert out["log"][-1] == (0, "kill", 1e-3)
        assert out["end"][0] == "done" and out["end"][3] == (0,)

    def test_message_after_fault_time_kills_instead_of_waking(self):
        # The wake key (1e-3 + latency) is past the fault time: the rank
        # dies at its fault time and the message is lost with it.
        out = assert_same_order(Case(
            [[("recv", 1, 0)], [("compute", 1e-3), ("send", 0, 0, 0)]],
            faults=(FaultSpec(0, time=5e-4),),
        ))
        assert (0, "kill", 5e-4) in out["log"]
        assert matched(out, 0) == [] and out["dropped"] == 1

    def test_equal_time_ties_break_by_rank(self):
        # Five identical programs: every event time is shared by all
        # ranks, so each round must run in rank order.
        script = [("compute", 1e-4), ("now",), ("send", 0, 0, 0)]
        out = assert_same_order(Case(
            [script + [("recv", ANY_SOURCE, 0)] * 5] + [script] * 4
        ))
        first_ops = [e[0] for e in out["log"] if e[1] == "compute"]
        assert first_ops == [0, 1, 2, 3, 4]
        # Equal arrivals match in injection (seq) order.
        assert [seq for seq, _ in matched(out, 0)] == [0, 1, 2, 3, 4]

    def test_phase_fault_on_running_rank(self):
        out = assert_same_order(Case(
            [
                [("set_phase", "a"), ("set_phase", "b"), ("send", 1, 0, 0)],
                [("recv", 0, 0)],
            ],
            faults=(FaultSpec(0, phase_index=1),),
        ))
        assert out["end"][0] == "failure"
        assert out["end"][2] == {0: 0.0} and out["end"][4] == [(1, 0, 0)]


def test_run_is_repeatable_on_one_simulator():
    """Per-run state (failed ranks, dropped messages, sanitizer hook
    batching, ready queue) is reset by ``run()``, not only by
    ``__init__``: a second run reports exactly what the first did."""
    from repro.analysis import Sanitizer

    def program(comm):
        yield from comm.set_phase("p")
        if comm.rank == 0:
            yield from comm.elapse(1e-3)
            yield from comm.send(1, 0, None, nbytes=0)  # to the dead rank
        yield from comm.send(2, 1, None, nbytes=0)
        if comm.rank == 2:
            yield from comm.recv(0, 1)
            yield from comm.recv(1, 1)
            yield from comm.recv(2, 1)

    san = Sanitizer()
    sim = Simulator(
        machine(3),
        fault_plan=FaultPlan([FaultSpec(1, phase_index=0)]),
        sanitizer=san,
    )
    sim.spawn_all(program)

    def observe():
        before = (san.hook_calls, san.messages_sent, san.messages_received)
        with pytest.raises(RankFailure) as err:
            sim.run()
        after = (san.hook_calls, san.messages_sent, san.messages_received)
        return (
            err.value.failed, err.value.blocked, sim.dropped_messages,
            sim.events, sim.requeues,
            tuple(b - a for a, b in zip(before, after)),
        )

    first = observe()
    assert first[0] == {1: 0.0} and first[2] == 1
    assert observe() == first


def test_run_ahead_keeps_requeues_well_below_events():
    """Count guard for run-ahead on a polling program (what the DCF
    service loop was before ``waitany``): 18 staggered ranks each poll
    three channels and back off, so the minimum-clock rank has a burst
    of four events before anyone else is due.  One push per burst reads
    0.25; re-queueing after every event reads 1.0, so a change that
    silently defeats run-ahead fails here on a count, not on a clock."""

    def poller(comm, rounds):
        yield from comm.elapse(comm.rank * 5e-4)
        for _ in range(rounds):
            for tag in (0, 1, 2):
                yield from comm.drain_recv(ANY_SOURCE, tag)
            yield from comm.elapse(comm.size * 5e-4)

    sim = Simulator(machine(18))
    sim.spawn_all(poller, 1500)
    sim.run()
    assert sim.events > 100_000
    assert sim.requeues / sim.events < 0.3
