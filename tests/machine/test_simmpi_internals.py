"""Unit tests for SimMPI internals: size estimation, requests."""

import numpy as np
import pytest

from repro.machine.simmpi import Comm
from repro.machine.spec import sp2


class TestSizeOf:
    def test_explicit_wins(self):
        assert Comm._size_of(np.zeros(100), 7) == 7

    def test_none_payload(self):
        assert Comm._size_of(None, None) == 8

    def test_numpy_payload(self):
        assert Comm._size_of(np.zeros(100), None) == 800 + 16

    def test_bytes_payload(self):
        assert Comm._size_of(b"abc", None) == 19

    def test_scalars(self):
        assert Comm._size_of(3, None) == 16
        assert Comm._size_of(2.5, None) == 16
        assert Comm._size_of(True, None) == 16

    def test_containers_recurse(self):
        n = Comm._size_of([np.zeros(10), np.zeros(10)], None)
        assert n == 16 + 2 * (80 + 16)
        d = Comm._size_of({"k": np.zeros(10)}, None)
        assert d > 80

    def test_unknown_object_default(self):
        class Thing:
            pass

        assert Comm._size_of(Thing(), None) == 64


class TestCommConstruction:
    def test_fields(self):
        m = sp2(nodes=4)
        c = Comm(2, 4, m)
        assert c.rank == 2 and c.size == 4
        assert c.machine is m
