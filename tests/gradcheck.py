"""Central finite-difference gradient checking used across test modules.

Checks run on float64 copies of the nets: h=1e-3 central differences on a
float32 forward would drown in rounding noise long before the 1e-3
tolerance is reached.
"""

from __future__ import annotations

import numpy as np


def finite_diff(f, params, h: float = 1e-3) -> dict[str, np.ndarray]:
    """Numeric gradients of scalar f() w.r.t. each named parameter tensor.

    f must be deterministic (re-seed any noise inside) and read the
    parameters' current .data.
    """
    grads = {}
    for name, p in params:
        flat = p.data.reshape(-1)
        g = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * h)
        grads[name] = g.reshape(p.data.shape)
    return grads


def clear_grads(*nets) -> None:
    """Drop every parameter gradient of `nets` before a fresh backward."""
    for net in nets:
        for _, p in net.parameters():
            p.grad = None


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(1, |a|, |n|), elementwise."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def assert_grads_match(params, numeric: dict[str, np.ndarray], tol: float = 1e-3) -> None:
    for name, p in params:
        assert p.grad is not None, f"no gradient reached {name}"
        err = max_rel_error(p.grad, numeric[name])
        assert err <= tol, f"gradient mismatch for {name}: rel err {err:.3e}"
