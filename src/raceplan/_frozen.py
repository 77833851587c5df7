"""Read-only arrays for the frozen dataclasses, in pickled copies too."""

from functools import partial

import numpy as np


def freeze(value):
    """Make each array in value, or nested in its tuples and partials, read-only;
    return value."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, partial)):
        for item in value.args if isinstance(value, partial) else value:
            freeze(item)
    return value


class Frozen:
    """Base of the frozen dataclasses: unpickling freezes arrays again."""

    def __setstate__(self, state):
        vars(self).update(state)
        freeze(tuple(state.values()))
