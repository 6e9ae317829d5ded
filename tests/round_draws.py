"""One round's draws from a ``StreamWindow``, for tests that step round by round."""

import numpy as np


def round_draws(window, rnd: int, stage: str, pids: np.ndarray):
    """The draws of ``stage`` for the ascending ``pids`` in round ``rnd``,
    after making ``window`` reach them."""
    window.reach(rnd, pids)
    return window.stage(np.full(pids.size, rnd), stage, pids)
