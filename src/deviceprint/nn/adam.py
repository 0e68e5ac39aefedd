"""Adam: bias-corrected exponential moving averages of the gradient and
its elementwise square.

The moments live in two flat buffers laid out like the store's packed
values, so a step makes each of its array operations once over the whole
store instead of once per parameter. They take the store's dtype, so a
float32 network keeps float32 moments beside its float32 weights and
updates both in float32; only the step count and the bias corrections are
Python floats.
"""

import numpy as np

# decay rates of the first and second moment averages
BETA1 = 0.9
BETA2 = 0.999


class AdamState:
    """First/second moment buffers plus the step counter.

    Packs `store` (see `ParamStore.pack`); `flat_m` and `flat_v` are laid
    out like its `flat_value`, so `store.views` gives them per parameter.
    """

    def __init__(self, store, alpha=1e-3, eps=1e-8):
        self.alpha = alpha
        self.eps = eps
        self.step_count = 0
        store.pack()
        self.flat_m = np.zeros_like(store.flat_value)
        self.flat_v = np.zeros_like(store.flat_value)


def adam_step(store, state):
    """Apply one update to every parameter from its accumulated gradient."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    value, grad = store.flat_value, store.flat_grad
    m, v = state.flat_m, state.flat_v
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad ** 2
    value -= state.alpha * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
