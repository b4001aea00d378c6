"""Tests for the nth-level restart cache."""

import copy
import pickle

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.connectivity.restart import RestartCache
from tests.connectivity._reference_restart import (
    RestartCache as ReferenceCache,
)


class TestRestartCache:
    def test_empty_cache_returns_none(self):
        cache = RestartCache()
        assert cache.hints(0, 1, np.array([3, 4]), ndim=2) is None
        assert cache.misses == 2

    def test_store_and_recall(self):
        cache = RestartCache()
        cache.store(
            0, 1,
            flat_indices=np.array([10, 11]),
            cells=np.array([[3, 4], [5, 6]]),
            found=np.array([True, True]),
        )
        hints = cache.hints(0, 1, np.array([10, 11]), ndim=2)
        assert hints.tolist() == [[3, 4], [5, 6]]
        assert cache.hit_rate == 1.0

    def test_unfound_donors_not_stored(self):
        cache = RestartCache()
        cache.store(0, 1, np.array([10]), np.array([[3, 4]]),
                    np.array([False]))
        assert cache.hints(0, 1, np.array([10]), ndim=2) is None

    def test_unknown_points_get_median_of_known(self):
        cache = RestartCache()
        cache.store(
            0, 1,
            np.array([1, 2, 3]),
            np.array([[10, 10], [12, 12], [14, 14]]),
            np.array([True, True, True]),
        )
        hints = cache.hints(0, 1, np.array([1, 99]), ndim=2)
        assert hints[0].tolist() == [10, 10]
        # Unknown rows take the median of the donors known *within this
        # query batch* (only point 1 here).
        assert hints[1].tolist() == [10, 10]

    def test_pairs_are_independent(self):
        cache = RestartCache()
        cache.store(0, 1, np.array([5]), np.array([[1, 1]]), np.array([True]))
        assert cache.hints(0, 2, np.array([5]), ndim=2) is None
        assert cache.hints(1, 1, np.array([5]), ndim=2) is None

    def test_invalidate_receiver(self):
        cache = RestartCache()
        cache.store(0, 1, np.array([5]), np.array([[1, 1]]), np.array([True]))
        cache.store(2, 1, np.array([5]), np.array([[9, 9]]), np.array([True]))
        cache.invalidate(receiver=0)
        assert cache.hints(0, 1, np.array([5]), ndim=2) is None
        assert cache.hints(2, 1, np.array([5]), ndim=2) is not None

    def test_invalidate_all(self):
        cache = RestartCache()
        cache.store(0, 1, np.array([5]), np.array([[1, 1]]), np.array([True]))
        cache.invalidate()
        assert cache.hints(0, 1, np.array([5]), ndim=2) is None

    def test_store_overwrites(self):
        cache = RestartCache()
        cache.store(0, 1, np.array([5]), np.array([[1, 1]]), np.array([True]))
        cache.store(0, 1, np.array([5]), np.array([[2, 2]]), np.array([True]))
        assert cache.hints(0, 1, np.array([5]), ndim=2).tolist() == [[2, 2]]

    def test_empty_store_and_empty_query(self):
        cache = RestartCache()
        cache.store(0, 1, np.array([5]), np.array([[1, 1]]), np.array([True]))
        cache.store(0, 1, np.zeros(0, int), np.zeros((0, 2), int),
                    np.zeros(0, bool))
        out, known = cache.hints_with_mask(0, 1, np.zeros(0, int), ndim=2)
        assert out.shape == (0, 2) and known.shape == (0,)
        assert cache.donor_grids_of(0, np.zeros(0, int)).shape == (0,)
        assert (cache.hits, cache.misses) == (0, 0)

    def test_donor_grid_follows_the_newest_store(self):
        cache = RestartCache()
        one = np.array([True])
        cache.store(0, 1, np.array([5]), np.array([[1, 1]]), one)
        cache.store(0, 2, np.array([5]), np.array([[7, 7]]), one)
        assert cache.donor_grids_of(0, np.array([5, 6])).tolist() == [2, -1]
        # The earlier grid's entry goes stale, it is not dropped.
        assert cache.hints(0, 1, np.array([5]), ndim=2).tolist() == [[1, 1]]
        cache.store(0, 1, np.array([5]), np.array([[2, 2]]), one)
        assert cache.donor_grids_of(0, np.array([5])).tolist() == [1]

    def test_sibling_copies_merge_in_any_order(self):
        """Two rank copies forked from one base each refresh their own
        point; whichever is merged last, its fork-time copy of the
        *other* rank's point must not bury the refreshed entry.  (The
        dict cache's ``update`` did exactly that: under ``mp`` every
        point not owned by the last rank fell one chunk behind.)"""
        one = np.array([True])
        for order in ((0, 1), (1, 0)):
            base = RestartCache()
            base.store(0, 1, np.array([10, 11]), np.array([[1, 1], [2, 2]]),
                       np.array([True, True]))
            copies = [pickle.loads(pickle.dumps(base)) for _ in range(2)]
            copies[0].store(0, 1, np.array([10]), np.array([[5, 5]]), one)
            copies[1].store(0, 2, np.array([11]), np.array([[6, 6]]), one)
            for i in order:
                base.merge(copies[i])
            assert base.hints(0, 1, np.array([10, 11]), 2).tolist() == [
                [5, 5], [2, 2]
            ]
            assert base.hints(0, 2, np.array([11]), 2).tolist() == [[6, 6]]
            assert base.donor_grids_of(0, np.array([10, 11])).tolist() == [1, 2]


# ----------------------------------------------------------------------
# The array cache against the dict cache it replaced.

RECEIVERS = st.integers(0, 1)
DONORS = st.integers(1, 3)
KEYS = st.lists(st.integers(0, 12), max_size=8)


class CacheAgainstReference(RuleBasedStateMachine):
    """Every operation runs on both caches; answers must be equal.

    ``merge`` is exercised under its contract — ``other`` is a copy of
    the receiving cache that alone was used since the copy was taken
    (sibling copies are :meth:`test_sibling_copies_merge_in_any_order`,
    where the reference is wrong).
    """

    @initialize(ndim=st.integers(2, 3))
    def start(self, ndim):
        self.ndim = ndim
        self.pair = (ReferenceCache(), RestartCache())

    @staticmethod
    def _store(pair, data, ndim):
        receiver, donor = data.draw(RECEIVERS), data.draw(DONORS)
        keys = np.array(data.draw(KEYS), dtype=np.int64)
        cells = np.array(
            data.draw(st.lists(
                st.lists(st.integers(0, 40), min_size=ndim, max_size=ndim),
                min_size=keys.size, max_size=keys.size,
            )),
            dtype=np.int64,
        ).reshape(keys.size, ndim)
        found = np.array(
            data.draw(st.lists(
                st.booleans(), min_size=keys.size, max_size=keys.size
            )),
            dtype=bool,
        )
        for cache in pair:
            cache.store(receiver, donor, keys, cells, found)

    @staticmethod
    def _query(pair, data, ndim):
        receiver, donor = data.draw(RECEIVERS), data.draw(DONORS)
        keys = np.array(data.draw(KEYS), dtype=np.int64)
        ref, new = pair
        out_ref, known_ref = ref.hints_with_mask(receiver, donor, keys, ndim)
        out_new, known_new = new.hints_with_mask(receiver, donor, keys, ndim)
        assert np.array_equal(out_ref, out_new)
        assert np.array_equal(known_ref, known_new)
        assert out_new.dtype == np.int64 and known_new.dtype == bool
        seed_ref = ref.hints(receiver, donor, keys, ndim)
        seed_new = new.hints(receiver, donor, keys, ndim)
        assert (seed_ref is None) == (seed_new is None)
        if seed_ref is not None:
            assert np.array_equal(seed_ref, seed_new)
        grids = new.donor_grids_of(receiver, keys)
        assert grids.dtype == np.int64
        assert grids.tolist() == [ref.donor_grid_of(receiver, k) for k in keys]

    @rule(data=st.data())
    def store(self, data):
        self._store(self.pair, data, self.ndim)

    @rule(data=st.data())
    def query(self, data):
        self._query(self.pair, data, self.ndim)

    @rule(data=st.data(), nops=st.integers(0, 4))
    def fork_use_merge(self, data, nops):
        others = tuple(copy.deepcopy(cache) for cache in self.pair)
        base = (others[0].hits, others[0].misses)
        for _ in range(nops):
            step = self._store if data.draw(st.booleans()) else self._query
            step(others, data, self.ndim)
        for cache, other in zip(self.pair, others):
            cache.merge(other, *base)

    @rule(receiver=st.none() | RECEIVERS)
    def invalidate(self, receiver):
        for cache in self.pair:
            cache.invalidate(receiver)

    @rule()
    def pickle_round_trip(self):
        self.pair = tuple(pickle.loads(pickle.dumps(c)) for c in self.pair)

    @invariant()
    def counters_agree(self):
        ref, new = self.pair
        assert (ref.hits, ref.misses) == (new.hits, new.misses)
        assert ref.hit_rate == new.hit_rate


CacheAgainstReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestCacheAgainstReference = CacheAgainstReference.TestCase
