"""Every record's weights and candidate, read off a run as it goes.

The engines keep the weights and the survival candidate only for the
block of records they are stepping; the ``Trajectory`` holds none of
them.  ``recorded`` spies on ``engine._record``, which receives each
block's, and stacks them in record order.
"""

from unittest import mock

import numpy as np

from marketsel import engine


def recorded(runner, *args, **kwargs):
    """``runner(*args, **kwargs)``'s trajectory, weights (T, M, N) and candidate (T, N).

    Record k's weights and candidate are those ``_record`` received for
    it: a discrete step's, or a continuous segment's first grid point's,
    or its jump's.
    """
    lams, cands = [], []
    record = engine._record

    def spy(traj, k, keep, rates, lam, cand):
        assert k == sum(map(len, cands)), "records arrive in order"
        lams.append(lam.copy())
        cands.append(cand.copy())
        record(traj, k, keep, rates, lam, cand)

    with mock.patch.object(engine, "_record", spy):
        traj = runner(*args, **kwargs)
    m, n = traj.num_investors, traj.num_assets
    lam = np.concatenate(lams) if lams else np.zeros((0, m, n))
    cand = np.concatenate(cands) if cands else np.zeros((0, n))
    assert lam.shape == (traj.n_records, m, n)
    return traj, lam, cand
