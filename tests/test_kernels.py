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
