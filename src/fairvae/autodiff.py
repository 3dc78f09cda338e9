"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly: every operation returns a ``Node`` holding the
forward value and a closure that propagates upstream gradients to its
parents. ``backward`` on a scalar root accumulates into ``.grad`` on every
reachable node that tracks gradients, so shared subexpressions are handled
correctly.

Gradient rule: a node tracks gradients (``requires_grad``) when it is a
trainable ``Parameter``, a leaf built directly with ``Node(...)``, or has a
parent that tracks them. Constants (arrays that ``as_node`` wraps, and
``detach`` results) and frozen parameters (``trainable=False``) never hold a
gradient buffer, and ops skip their backward contribution to them.
Parameters and leaves hold a zeroed ``.grad`` from construction; every other
node's ``.grad`` is ``None`` until the first gradient is accumulated into it,
so a forward pass that never calls ``backward`` allocates no gradient buffer.
A node that does not track gradients keeps neither its parents nor a backward
closure. Inside ``no_grad`` no op result tracks gradients, so an evaluation
pass releases each intermediate value as soon as nothing else holds it.

Everything is float64 and single-threaded per graph; there is no broadcasting
machinery beyond what the ops here need (matrix/vector shapes, row-wise
reductions, bias rows).
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import expit

LOG_FLOOR = 1e-12  # probabilities are clipped to [LOG_FLOOR, 1] before log

_grad_enabled = True  # False inside ``no_grad``


class ShapeMismatch(ValueError):
    """Raised when operand shapes do not conform."""


def tensor(data, ctx: str = "tensor") -> np.ndarray:
    """Convert to a float64 array, rejecting NaN/Inf."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {ctx}")
    return arr


class Node:
    """A value in the computation graph and, when it tracks gradients, its
    gradient buffer.

    ``requires_grad`` is honoured for leaves only; a node with parents tracks
    gradients exactly when one of its parents does and it is built outside
    ``no_grad``, and keeps its parents only then.
    """

    __slots__ = ("value", "grad", "op", "parents", "requires_grad", "_backward")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 requires_grad: bool = True):
        self.value = tensor(value, ctx=op)
        self.op = op
        self._backward = None
        if parents:
            self.requires_grad = _grad_enabled and any(
                p.requires_grad for p in parents)
            self.parents = parents if self.requires_grad else ()
            self.grad = None  # allocated by the first accumulation
        else:
            self.requires_grad = requires_grad
            self.parents = ()
            self.grad = np.zeros_like(self.value) if requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def detach(self) -> "Node":
        """A new leaf with a copy of this value; gradients stop here."""
        return Node(self.value.copy(), op="detach", requires_grad=False)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Parameter(Node):
    """A named leaf that an optimizer may update in place.

    A frozen parameter (``trainable=False``) is a constant to ``backward``.
    """

    __slots__ = ("name",)

    def __init__(self, value, name: str, trainable: bool = True):
        super().__init__(value, op="param", requires_grad=trainable)
        self.name = name

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


@contextlib.contextmanager
def no_grad():
    """Nodes that ops build inside the block track no gradients, whatever
    their parents; leaves and parameters are unaffected. For evaluation."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def as_node(x) -> Node:
    """``x`` itself if it is a node, else a constant wrapping it."""
    return x if isinstance(x, Node) else Node(x, op="const", requires_grad=False)


def _link(out: Node, backward) -> Node:
    """Attach ``backward`` to ``out`` if it tracks gradients; otherwise the
    closure, and the parents it holds, are dropped."""
    if out.requires_grad:
        out._backward = backward
    return out


def _grad_buffer(node: Node) -> np.ndarray:
    """``node.grad``, allocated zeroed on first use."""
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    return node.grad


def _accumulate(node: Node, grad) -> None:
    buffer = _grad_buffer(node)
    buffer += grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast to reach ``grad.shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = Node(a.value + b.value, op="add", parents=(a, b))

    def _bw(up):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(up, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(up, b.value.shape))

    return _link(out, _bw)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = Node(a.value - b.value, op="sub", parents=(a, b))

    def _bw(up):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(up, a.value.shape))
        if b.requires_grad:
            buffer = _grad_buffer(b)
            buffer -= _unbroadcast(up, b.value.shape)

    return _link(out, _bw)


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    out = Node(a.value * b.value, op="mul", parents=(a, b))

    def _bw(up):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(b.value * up, a.value.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(a.value * up, b.value.shape))

    return _link(out, _bw)


def scale(a, c: float) -> Node:
    a = as_node(a)
    out = Node(a.value * c, op="scale", parents=(a,))

    def _bw(up):
        _accumulate(a, c * up)

    return _link(out, _bw)


def square(a) -> Node:
    a = as_node(a)
    out = Node(a.value * a.value, op="square", parents=(a,))

    def _bw(up):
        _accumulate(a, 2.0 * a.value * up)

    return _link(out, _bw)


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatch(
            f"matmul shapes do not conform: {a.value.shape} x {b.value.shape}"
        )
    out = Node(a.value @ b.value, op="matmul", parents=(a, b))

    def _bw(up):
        if a.requires_grad:
            _accumulate(a, up @ b.value.T)
        if b.requires_grad:
            _accumulate(b, a.value.T @ up)

    return _link(out, _bw)


def sum_rows(a) -> Node:
    """Sum over axis 1: Node[n x d] -> Node[n]."""
    a = as_node(a)
    out = Node(a.value.sum(axis=1), op="sum_rows", parents=(a,))

    def _bw(up):
        _accumulate(a, up[:, None])

    return _link(out, _bw)


def mean_all(a) -> Node:
    """Mean over every entry -> scalar Node."""
    a = as_node(a)
    out = Node(a.value.mean(), op="mean", parents=(a,))

    def _bw(up):
        _accumulate(a, up / a.value.size)

    return _link(out, _bw)


def column(a, j: int) -> Node:
    """Extract column j of a 2-D node -> Node[n]."""
    a = as_node(a)
    out = Node(a.value[:, j], op="column", parents=(a,))

    def _bw(up):
        _grad_buffer(a)[:, j] += up

    return _link(out, _bw)


def concat_columns(parts) -> Node:
    """Concatenate 2-D nodes along axis 1."""
    parts = [as_node(p) for p in parts]
    out = Node(np.concatenate([p.value for p in parts], axis=1),
               op="concat", parents=tuple(parts))
    widths = [p.value.shape[1] for p in parts]

    def _bw(up):
        start = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                _accumulate(p, up[:, start:start + w])
            start += w

    return _link(out, _bw)


def log_clipped(a, lo: float = LOG_FLOOR, hi: float = 1.0) -> Node:
    """log of a clipped to [lo, hi]; gradient is zero outside the clip range."""
    a = as_node(a)
    clipped = np.clip(a.value, lo, hi)
    out = Node(np.log(clipped), op="log", parents=(a,))
    inside = ((a.value >= lo) & (a.value <= hi)).astype(np.float64)

    def _bw(up):
        _accumulate(a, inside * up / clipped)

    return _link(out, _bw)


# ---------------------------------------------------------------------------
# neural-network ops


def dense(x, weight: Parameter, bias: Parameter) -> Node:
    """Affine map: x @ weight + bias, bias broadcast over rows."""
    x = as_node(x)
    if x.value.ndim != 2 or x.value.shape[1] != weight.value.shape[0]:
        raise ShapeMismatch(
            f"dense: input {x.value.shape} does not match weight {weight.value.shape}"
        )
    if bias.value.shape != (weight.value.shape[1],):
        raise ShapeMismatch(
            f"dense: bias {bias.value.shape} does not match weight {weight.value.shape}"
        )
    value = x.value @ weight.value
    value += bias.value  # in place: no second n x d_out temporary
    out = Node(value, op="dense", parents=(x, weight, bias))

    def _bw(up):
        if x.requires_grad:
            _accumulate(x, up @ weight.value.T)
        if weight.requires_grad:
            _accumulate(weight, x.value.T @ up)
        if bias.requires_grad:
            _accumulate(bias, up.sum(axis=0))

    return _link(out, _bw)


_ACTIVATIONS = {
    "relu": (lambda v: np.maximum(v, 0.0), lambda v, out: (v > 0).astype(np.float64)),
    "tanh": (np.tanh, lambda v, out: 1.0 - out * out),
    "softplus": (lambda v: np.logaddexp(0.0, v), lambda v, out: expit(v)),
    "sigmoid": (expit, lambda v, out: out * (1.0 - out)),
}


def activation(x, kind: str) -> Node:
    x = as_node(x)
    try:
        fwd, deriv = _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation kind: {kind!r}") from None
    out = Node(fwd(x.value), op=kind, parents=(x,))

    def _bw(up):
        _accumulate(x, deriv(x.value, out.value) * up)

    return _link(out, _bw)


def relu(x):
    return activation(x, "relu")


def tanh(x):
    return activation(x, "tanh")


def softplus(x):
    return activation(x, "softplus")


def softmax(x) -> Node:
    """Row-wise softmax with max-subtraction for stability."""
    x = as_node(x)
    if x.value.ndim != 2 or x.value.shape[1] < 2:
        raise ShapeMismatch(f"softmax expects n x k with k >= 2, got {x.value.shape}")
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Node(p, op="softmax", parents=(x,))

    def _bw(up):
        inner = (up * p).sum(axis=1, keepdims=True)
        _accumulate(x, p * (up - inner))

    return _link(out, _bw)


def gradient_reversal(x, lam: float) -> Node:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise ValueError(f"gradient reversal strength must be >= 0, got {lam}")
    x = as_node(x)
    out = Node(x.value, op="grad_reverse", parents=(x,))

    def _bw(up):
        _accumulate(x, -lam * up)

    return _link(out, _bw)


def reparameterize(mu, sigma, epsilon) -> Node:
    """h = epsilon * sigma + mu with caller-supplied noise."""
    mu, sigma = as_node(mu), as_node(sigma)
    if np.any(sigma.value < 0):
        raise ValueError("reparameterize: sigma entries must be >= 0")
    eps = tensor(epsilon, ctx="epsilon")
    if eps.shape != mu.value.shape or sigma.value.shape != mu.value.shape:
        raise ShapeMismatch(
            f"reparameterize shapes differ: mu {mu.value.shape}, "
            f"sigma {sigma.value.shape}, epsilon {eps.shape}"
        )
    out = Node(eps * sigma.value + mu.value, op="reparameterize",
               parents=(mu, sigma))

    def _bw(up):
        if mu.requires_grad:
            _accumulate(mu, up)
        if sigma.requires_grad:
            _accumulate(sigma, eps * up)

    return _link(out, _bw)


def dropout(x, rate: float, mask=None, training: bool = False, rng=None) -> Node:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_node(x)
    if not training or rate == 0.0:
        return x
    if mask is None:
        if rng is None:
            raise ValueError("dropout in training mode needs a mask or an rng")
        mask = (rng.random(x.value.shape) >= rate).astype(np.float64)
    else:
        mask = tensor(mask, ctx="dropout mask")
    keep = mask / (1.0 - rate)
    out = Node(x.value * keep, op="dropout", parents=(x,))

    def _bw(up):
        _accumulate(x, keep * up)

    return _link(out, _bw)


def abs_row_cosine(a, b) -> tuple[Node, int]:
    """Per-row |cosine similarity| of two n x d nodes.

    Rows where either vector has zero norm contribute 0 and are counted in the
    returned tally instead of dividing by zero.
    """
    a, b = as_node(a), as_node(b)
    if a.value.shape != b.value.shape or a.value.ndim != 2:
        raise ShapeMismatch(
            f"abs_row_cosine expects equal n x d shapes, got {a.value.shape} "
            f"and {b.value.shape}"
        )
    na = np.linalg.norm(a.value, axis=1)
    nb = np.linalg.norm(b.value, axis=1)
    ok = (na > 0) & (nb > 0)
    denom = np.where(ok, na * nb, 1.0)
    dot = (a.value * b.value).sum(axis=1)
    cos = np.where(ok, dot / denom, 0.0)
    out = Node(np.abs(cos), op="abs_cosine", parents=(a, b))
    zero_rows = int((~ok).sum())

    def _bw(up):
        s = np.sign(cos) * up * ok
        sa = (s / denom)[:, None]
        ca = (s * cos / np.where(ok, na * na, 1.0))[:, None]
        cb = (s * cos / np.where(ok, nb * nb, 1.0))[:, None]
        if a.requires_grad:
            _accumulate(a, sa * b.value - ca * a.value)
        if b.requires_grad:
            _accumulate(b, sa * a.value - cb * b.value)

    return _link(out, _bw), zero_rows


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Node) -> None:
    """Reverse-mode sweep from a scalar root; accumulates into ``.grad`` of
    every reachable node that tracks gradients."""
    if root.value.size != 1:
        raise ValueError(f"backward expects a scalar root, got shape {root.value.shape}")
    if not root.requires_grad:
        return  # built from constants only: no gradient can flow
    order = _topological_order(root)
    _accumulate(root, np.ones_like(root.value))
    for node in order:
        if node._backward is not None:
            node._backward(node.grad)


def _topological_order(root: Node) -> list[Node]:
    """Nodes reachable from root, root first (iterative, graphs can be deep)."""
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def zero_grads(params) -> None:
    for p in params:
        p.grad[...] = 0.0
