"""Central-difference gradient verification against the autodiff tape.

Only tests check gradients, so the checker lives beside them rather than in
the package.
"""
import math

import numpy as np

from aptstage.errors import AptStageError
from aptstage.nn import ParamStore, no_grad


class CheckError(AptStageError):
    """The gradient checker hit a non-finite loss."""


def finite_diff_check(
    loss_fn,
    store: ParamStore,
    step: float = 1e-4,
    max_coords: int = 200,
    rng_seed: int = 0,
) -> float:
    """Compare analytic gradients of loss_fn(store) against central
    differences and return the max relative error
    |analytic - numeric| / max(1e-8, |numeric|).

    Checks every coordinate when the store is small, otherwise a random
    subset of max_coords coordinates (at least 200 by default).
    """
    out = loss_fn(store)
    loss0 = float(out.data)
    if not math.isfinite(loss0):
        raise CheckError(f"non-finite loss: {loss0}")
    store.zero_grad()
    out.backward()
    analytic = {name: np.array(store.tensor(name).grad
                               if store.tensor(name).grad is not None
                               else np.zeros_like(store.tensor(name).data))
                for name in store.names()}

    coords = []
    for name in store.names():
        n = store.tensor(name).data.size
        coords.extend((name, i) for i in range(n))
    if len(coords) > max_coords:
        rng = np.random.default_rng(rng_seed)
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in sorted(picks)]

    def eval_loss() -> float:
        with no_grad():
            val = float(loss_fn(store).data)
        if not math.isfinite(val):
            raise CheckError(f"non-finite loss during perturbation: {val}")
        return val

    worst = 0.0
    for name, flat in coords:
        data = store.tensor(name).data
        orig = data.reshape(-1)[flat]
        data.reshape(-1)[flat] = orig + step
        f_plus = eval_loss()
        data.reshape(-1)[flat] = orig - step
        f_minus = eval_loss()
        data.reshape(-1)[flat] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = float(analytic[name].reshape(-1)[flat])
        err = abs(a - numeric) / max(1e-8, abs(numeric))
        worst = max(worst, err)
    return worst
