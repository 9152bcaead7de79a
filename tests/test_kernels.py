import numpy as np
import pytest

from masspoly._kernels import recurrence_table


def test_recurrence_table_guards_short_arrays():
    al = np.zeros(3)
    sb = np.ones(3)
    with pytest.raises(ValueError):
        recurrence_table(al, sb, np.zeros(4), 5)


@pytest.mark.parametrize("nmax", [0, 1, 7])
def test_recurrence_table_extends_a_head_bit_for_bit(nmax):
    rng = np.random.default_rng(3)
    al = rng.uniform(-0.5, 0.5, 8)
    sb = rng.uniform(0.3, 1.2, 8)
    x = np.array([-0.0, 0.0, 0.25, -0.9, 1.7])
    full = recurrence_table(al, sb, x, nmax)
    assert full.shape == (nmax + 1, len(x))
    for d in range(nmax + 1):
        new = recurrence_table(al, sb, x, nmax, head=full[: d + 1])
        assert new.shape == (nmax - d, len(x))
        assert np.concatenate([full[: d + 1], new]).tobytes() == full.tobytes()


def test_recurrence_table_rejects_a_head_beyond_the_degree():
    al, sb = np.zeros(4), np.ones(4)
    head = recurrence_table(al, sb, np.zeros(3), 3)
    with pytest.raises(ValueError, match="head holds degrees up to 3"):
        recurrence_table(al, sb, np.zeros(3), 2, head=head)


def test_recurrence_table_computes_in_a_reused_buffer_bit_for_bit():
    # a block-by-block extension whose head is the first two rows of the buffer it writes
    rng = np.random.default_rng(5)
    al, sb = rng.uniform(-0.5, 0.5, 30), rng.uniform(0.3, 1.2, 30)
    x = np.array([-0.0, 0.0, 0.25, -0.9, 1.7])
    full = recurrence_table(al, sb, x, 29)
    buf = np.full((10, len(x)), np.nan)
    rows = recurrence_table(al, sb, x, 8, out=buf)
    assert np.shares_memory(rows, buf) and rows.tobytes() == full[:9].tobytes()
    for d in (8, 16, 24):
        top = min(d + 8, 29)
        buf[:2] = rows[-2:]  # the head P_{d-1}, P_d
        rows = recurrence_table(al[d - 1 :], sb[d - 1 :], x, top - d + 1, head=buf[:2], out=buf)
        assert np.shares_memory(rows, buf) and rows.tobytes() == full[d + 1 : top + 1].tobytes()
