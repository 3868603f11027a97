"""Every record's weights and candidate, read off a run as it goes.

The engines keep the weights and the survival candidate only for the
block they are stepping; the ``Trajectory`` holds none of them.  Each
block hands its records' weights and candidate to ``engine._tally``, in
record order, and ``recorded`` spies on it and stacks them.
"""

from unittest import mock

import numpy as np

from marketsel import engine


def recorded(runner, *args, **kwargs):
    """``runner(*args, **kwargs)``'s trajectory, weights (T, M, N) and candidate (T, N).

    Record k's weights and candidate are those ``_tally`` received for
    it: a discrete step's, or a continuous segment's first grid point's,
    or its jump's.
    """
    lams, cands = [], []
    tally = engine._tally

    def spy(traj, lam, cand):
        assert len(lam) == len(cand) > 0
        lams.append(lam.copy())
        cands.append(cand.copy())
        tally(traj, lam, cand)

    with mock.patch.object(engine, "_tally", spy):
        traj = runner(*args, **kwargs)
    m, n = traj.num_investors, traj.num_assets
    lam = np.concatenate(lams) if lams else np.zeros((0, m, n))
    cand = np.concatenate(cands) if cands else np.zeros((0, n))
    assert lam.shape == (traj.n_records, m, n)
    return traj, lam, cand
