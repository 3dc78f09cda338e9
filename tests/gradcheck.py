"""Shared finite-difference gradient checking for the test suite."""

import numpy as np

from fairvae import autodiff as ad


def fd_grads(forward, params, eps=1e-6):
    """Central finite differences of a scalar forward() wrt each parameter.

    ``forward`` must rebuild the computation from the parameters' current
    ``.value`` arrays; entries are perturbed in place and restored.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.value)
        flat, gf = p.value.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = forward()
            flat[i] = orig - eps
            fm = forward()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def check_grads(build, params, rtol=1e-5, atol=1e-7, eps=1e-6):
    """Assert analytic gradients of build() (a scalar Node) match central FD."""
    for p in params:
        p.grad[...] = 0.0
    root = build()
    ad.backward(root)
    analytic = [p.grad.copy() for p in params]
    numeric = fd_grads(lambda: float(build().value), params, eps=eps)
    for p, a, n in zip(params, analytic, numeric):
        np.testing.assert_allclose(
            a, n, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for {getattr(p, 'name', p.op)}",
        )


def graph_nodes(root):
    """Every node reachable from root through parents."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())
