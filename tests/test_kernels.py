import numpy as np
import pytest

from masspoly._kernels import recurrence_table


def test_recurrence_table_guards_short_arrays():
    al = np.zeros(3)
    sb = np.ones(3)
    with pytest.raises(ValueError):
        recurrence_table(al, sb, np.zeros(4), 5)
