"""Direct tests for the per-rank rows and the machine-wide rollup.

An engine charges each rank's :class:`RankMetrics` row one
:class:`PhaseCell` per phase; the derived statistics (imbalance,
fractions, flop totals) are read off a :class:`PhaseRollup` of those
rows.
"""

import pytest

from repro.machine.metrics import PhaseRollup, RankMetrics


def rank(r, phases):
    m = RankMetrics(r)
    for phase, kind, dt in phases:
        m.add_time(phase, kind, dt)
    m.final_clock = sum(c.total for c in m.cells.values())
    return m


class TestRankMetrics:
    def test_phase_time_sums_kinds(self):
        m = rank(0, [("a", "compute", 1.0), ("a", "wait", 0.5),
                     ("b", "comm", 0.25)])
        assert m.cell("a").total == pytest.approx(1.5)
        assert PhaseRollup([m]).rank_total(0) == pytest.approx(1.75)

    def test_negative_increment_rejected(self):
        m = RankMetrics(0)
        with pytest.raises(ValueError):
            m.add_time("a", "compute", -1.0)

    def test_flops_accounting(self):
        m = RankMetrics(0)
        m.add_flops("a", 100.0)
        m.add_flops("b", 50.0)
        assert m.cell("a").flops == 100.0
        assert PhaseRollup([m]).total_flops() == 150.0


class TestMachineMetrics:
    def test_elapsed_is_max_clock(self):
        roll = PhaseRollup([rank(0, [("a", "compute", 1.0)]),
                            rank(1, [("a", "compute", 3.0)])])
        assert roll.elapsed == 3.0

    def test_imbalance(self):
        roll = PhaseRollup([rank(0, [("a", "compute", 1.0)]),
                            rank(1, [("a", "compute", 3.0)])])
        assert roll.imbalance("a") == pytest.approx(3.0 / 2.0)

    def test_perfect_balance_is_one(self):
        roll = PhaseRollup([rank(0, [("a", "compute", 2.0)]),
                            rank(1, [("a", "compute", 2.0)])])
        assert roll.imbalance("a") == pytest.approx(1.0)

    def test_phase_fraction(self):
        roll = PhaseRollup([
            rank(0, [("flow", "compute", 3.0), ("dcf", "compute", 1.0)]),
            rank(1, [("flow", "compute", 3.0), ("dcf", "compute", 1.0)]),
        ])
        assert roll.phase_fraction("dcf") == pytest.approx(0.25)

    def test_mflops_per_node(self):
        a = rank(0, [("x", "compute", 2.0)])
        a.add_flops("x", 10e6)
        b = rank(1, [("x", "compute", 2.0)])
        b.add_flops("x", 30e6)
        # 40 Mflop over 2 s on 2 nodes = 10 Mflop/s/node.
        roll = PhaseRollup([a, b])
        assert roll.total_flops() == pytest.approx(40e6)
        assert roll.total_flops() / roll.elapsed / roll.nranks / 1e6 == (
            pytest.approx(10.0)
        )

    def test_summary_structure(self):
        roll = PhaseRollup([rank(0, [("a", "compute", 1.0)])])
        assert roll.nranks == 1
        (row,) = roll.breakdown()
        assert row["phase"] == "a"
        assert row["max_s"] == row["avg_s"] == pytest.approx(1.0)
        assert row["fraction"] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PhaseRollup([])

    def test_phases_preserve_order(self):
        roll = PhaseRollup([
            rank(0, [("z", "compute", 1.0), ("a", "compute", 1.0)]),
            rank(1, [("b", "compute", 1.0), ("a", "compute", 1.0)]),
        ])
        assert roll.phases() == ["z", "a", "b"]
