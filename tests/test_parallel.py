"""parallel.Workers on its own: results in list order and the earliest
failure in list order, whatever the worker count and the timing."""

import contextlib
import multiprocessing
import os
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from resppain import parallel as par


class ItemError(Exception):
    pass


def _load(shared):
    return 10 * shared


def _doubled(base, item):
    return base + 2 * item[0]


def _checked(base, item):
    position, fails, delay = item
    time.sleep(delay)
    if fails:
        raise ItemError(position)
    return base + position


@settings(max_examples=25, deadline=None)
@given(cpus=st.integers(1, 4), shared=st.integers(-5, 5), n_items=st.integers(0, 9),
       failing=st.sets(st.integers(0, 8)))
def test_map_yields_in_list_order_and_raises_the_earliest_failure(cpus, shared, n_items, failing):
    failing = {i for i in failing if i < n_items}
    first = min(failing, default=n_items)
    # the earliest failure is slowed, so a later one comes first in time
    items = [(i, i in failing, 0.05 if i == first else 0.0) for i in range(n_items)]
    got = []
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        with pytest.raises(ItemError) if failing else contextlib.nullcontext() as raised, \
                par.Workers((_doubled, _checked), 4, _load) as pool:
            assert list(pool.map(_doubled, shared, items)) == [10 * shared + 2 * i for i in range(n_items)]
            got.extend(pool.map(_checked, shared, items))
    assert got == [10 * shared + i for i in range(first)]
    if failing:
        assert raised.value.args == (first,)
    assert multiprocessing.active_children() == []
