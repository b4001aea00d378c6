"""Tests for message matching and mailbox semantics."""

from repro.machine.event import ANY_SOURCE, ANY_TAG, Mailbox, Message


def msg(src=0, dst=1, tag=0, arrival=1.0, payload=None, nbytes=8):
    return Message(
        src=src, dst=dst, tag=tag, payload=payload, nbytes=nbytes,
        send_time=arrival - 0.5, arrival_time=arrival,
    )


class TestMessageMatching:
    def test_exact_match(self):
        m = msg(src=3, tag=7)
        assert m.matches(3, 7)
        assert not m.matches(3, 8)
        assert not m.matches(2, 7)

    def test_wildcards(self):
        m = msg(src=3, tag=7)
        assert m.matches(ANY_SOURCE, 7)
        assert m.matches(3, ANY_TAG)
        assert m.matches(ANY_SOURCE, ANY_TAG)


class TestMailbox:
    def test_probe_respects_arrival_time(self):
        box = Mailbox()
        box.deposit(msg(arrival=5.0))
        assert box.peek_matching(ANY_SOURCE, ANY_TAG, now=4.0) is None
        assert box.peek_matching(ANY_SOURCE, ANY_TAG, now=5.0) is not None

    def test_allow_future_sees_undelivered(self):
        box = Mailbox()
        box.deposit(msg(arrival=5.0))
        got = box.peek_matching(ANY_SOURCE, ANY_TAG, now=0.0, allow_future=True)
        assert got is not None

    def test_pop_removes(self):
        box = Mailbox()
        box.deposit(msg(arrival=1.0))
        assert len(box) == 1
        box.pop_matching(ANY_SOURCE, ANY_TAG, now=2.0)
        assert len(box) == 0

    def test_wildcard_matches_earliest_arrival(self):
        box = Mailbox()
        box.deposit(msg(src=1, tag=1, arrival=3.0, payload="late"))
        box.deposit(msg(src=2, tag=2, arrival=1.0, payload="early"))
        got = box.pop_matching(ANY_SOURCE, ANY_TAG, now=10.0)
        assert got.payload == "early"

    def test_tag_filter_skips_nonmatching(self):
        box = Mailbox()
        box.deposit(msg(src=1, tag=1, arrival=1.0, payload="a"))
        box.deposit(msg(src=1, tag=2, arrival=2.0, payload="b"))
        got = box.pop_matching(1, 2, now=10.0)
        assert got.payload == "b"
        assert len(box) == 1

    def test_fifo_per_channel_on_equal_arrival(self):
        box = Mailbox()
        a = msg(src=1, tag=1, arrival=1.0, payload="first")
        b = msg(src=1, tag=1, arrival=1.0, payload="second")
        box.deposit(a)
        box.deposit(b)
        assert box.pop_matching(1, 1, now=2.0).payload == "first"
        assert box.pop_matching(1, 1, now=2.0).payload == "second"

    def test_equal_arrival_ties_match_in_seq_order_across_channels(self):
        # Deposited out of seq order (as a real transport may deliver):
        # the (arrival_time, seq) matching order must still hold, and a
        # message deposited later with an *equal* key goes after.
        box = Mailbox()
        first = msg(src=2, tag=1, arrival=1.0, payload="first")
        second = msg(src=1, tag=2, arrival=1.0, payload="second")
        early = msg(src=3, tag=3, arrival=0.5, payload="early")
        box.deposit(second)
        box.deposit(early)
        box.deposit(first)
        assert [m.payload for m in box.pending()] == ["early", "first", "second"]
        assert box.peek_matching(ANY_SOURCE, ANY_TAG, now=1.0).payload == "early"
        assert box.pop_matching(ANY_SOURCE, 1, now=1.0).payload == "first"
        assert box.pop_matching(ANY_SOURCE, ANY_TAG, now=0.9).payload == "early"
        assert box.pop_matching(ANY_SOURCE, ANY_TAG, now=0.9) is None

    def test_drain_takes_a_strict_subset(self):
        # Matches are interleaved with non-matches (other tag, not yet
        # arrived): the drain returns them in (src, seq) order and the
        # rest stay, still in arrival order.
        box = Mailbox()
        a = msg(src=2, tag=1, arrival=1.0, payload="a")
        other = msg(src=1, tag=9, arrival=1.5, payload="other")
        b = msg(src=1, tag=1, arrival=2.0, payload="b")
        c = msg(src=2, tag=1, arrival=2.0, payload="c")
        future = msg(src=1, tag=1, arrival=3.0, payload="future")
        for m in (future, c, other, a, b):
            box.deposit(m)
        got = box.pop_all_matching(ANY_SOURCE, 1, now=2.0)
        assert [m.payload for m in got] == ["b", "a", "c"]
        assert [m.payload for m in box.pending()] == ["other", "future"]
        assert box.pop_all_matching(ANY_SOURCE, 1, now=2.0) == []
        assert len(box) == 2
