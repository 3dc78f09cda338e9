"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly: every operation returns a ``Node`` holding the
forward value and, per parent, the function that propagates upstream
gradients to it. ``backward`` on a scalar root accumulates into ``.grad`` on
every reachable node that tracks gradients, so shared subexpressions are
handled correctly.

An op supplies only its forward value and one vector-Jacobian product (vjp)
per input, a function from the upstream gradient to that input's gradient;
``_node`` builds the result and applies the gradient rule in one place.

Gradient rule: a node tracks gradients (``requires_grad``) when it is a
trainable ``Parameter``, a leaf built directly with ``Node(...)``, or has a
parent that tracks them. Constants (arrays that ``as_node`` wraps, and
``detach`` results) and frozen parameters (``trainable=False``) never hold a
gradient buffer, and their vjp is never run.
Parameters and leaves hold a zeroed ``.grad`` from construction, and every
gradient into them is added in place (an optimizer may hold that buffer; see
``training.Adam``). Every other node's ``.grad`` is ``None`` until the first
gradient is accumulated into it, so a forward pass that never calls
``backward`` allocates no gradient buffer.

First-touch rule: the first gradient into an intermediate node is stored as
``grad + 0.0``, a fresh array with exactly the bits of ``zeros + grad``
(``-0.0`` becomes ``+0.0``) that never aliases the vjp's return value (``add``
hands the same upstream array to both parents). A gradient of another shape
(a broadcast one, such as ``sum_rows``' ``(n, 1)``) is added into a
zero-filled buffer instead.
A node that does not track gradients keeps neither its parents nor their
vjps. Inside ``no_grad`` no op result tracks gradients, so an evaluation
pass releases each intermediate value as soon as nothing else holds it.

Fused ops: a fused loss term (``objectives``) is one op standing for a chain
of primitives. Its vjps replay the chain: the same numpy operations in the
same order, with ``_first_touch`` wherever the chain stored the first
gradient of one of its nodes, so every gradient keeps the chain's bits (a
first touch of an array that already went through one of the same shape
changes no bit, so a vjp skips it). A chain may be fused only where each
input then receives its gradients in the same order among all the gradients
added into it. So the fused node lists its parents in the order in which the
chain's nodes listed them, which keeps the order of the graph walk
(``_topological_order``), and an input that the chain reaches twice gets two
``(parent, vjp)`` pairs in the chain's order, never their sum: another
consumer's gradient may already sit in its buffer. ``_mean_node`` fuses a
per-row op with the mean over its rows.

Two-sided sweep: when a training step splits over two processes
(``parallel``), the unlabeled side's graph lives in the helper process and
shares only the parameters' values with the labeled side's. The serial order
(``_topological_order`` from ``add(labeled, unlabeled)``) walks the second
side first, so after the root it runs every node of the labeled side and
then every node of the unlabeled side, each side's nodes in the order of
``_topological_order`` from that side. The helper keeps that order on its
side with ``backward_deferring`` from a root gradient of 1.0, the one the
serial root's ``add`` hands down, adding into its own nodes but returning its
gradients into leaves in the order it made them. ``objectives.joint_loss``
joins the labeled loss and the helper's total with ``add_sides``, and
``backward`` from that root sweeps the labeled side and then adds the
returned gradients one by one. So every buffer receives the serial sweep's
additions in the serial order, and the bits are the same.

Everything is float64; there is no broadcasting machinery beyond what the
ops here need (matrix/vector shapes, row-wise reductions, bias rows).

No scipy module is imported: the softplus derivative (``_expit``) has
``scipy.special.expit``'s bits without it, from the C library's ``exp``.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

LOG_FLOOR = 1e-12  # probabilities are clipped to [LOG_FLOOR, 1] before log

_grad_enabled = True  # False inside ``no_grad``


class ShapeMismatch(ValueError):
    """Raised when operand shapes do not conform."""


def tensor(data, ctx: str = "tensor") -> np.ndarray:
    """Convert to a float64 array, rejecting NaN/Inf."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite values in {ctx}")
    return arr


class Node:
    """A value in the computation graph and, when it tracks gradients, its
    gradient buffer.

    ``requires_grad`` is honoured for leaves only; a node with parents tracks
    gradients exactly when one of its parents does and it is built outside
    ``no_grad``, and keeps its parents only then.
    """

    __slots__ = ("value", "grad", "op", "parents", "requires_grad", "_inputs")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 requires_grad: bool = True):
        self.value = tensor(value, ctx=op)
        self.op = op
        self._inputs = ()  # the (parent, vjp) pairs, kept only when tracking
        if parents:
            tracks = False
            if _grad_enabled:
                for parent in parents:
                    if parent.requires_grad:
                        tracks = True
                        break
            self.requires_grad = tracks
            self.parents = parents if tracks else ()
            self.grad = None  # allocated by the first accumulation
        else:
            self.requires_grad = requires_grad
            self.parents = ()
            self.grad = np.zeros_like(self.value) if requires_grad else None

    def _backward(self, up) -> None:
        """Run each input's vjp, in order, on the upstream gradient ``up`` and
        add the result into that input if it tracks gradients, so constants
        never get a gradient."""
        for parent, vjp in self._inputs:
            if parent.requires_grad:
                _accumulate(parent, vjp(up))

    def detach(self) -> "Node":
        """A new leaf with a copy of this value; gradients stop here."""
        return Node(self.value.copy(), op="detach", requires_grad=False)

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Parameter(Node):
    """A named leaf that an optimizer may update in place.

    A frozen parameter (``trainable=False``) is a constant to ``backward``.
    """

    __slots__ = ("name", "owned")

    def __init__(self, value, name: str, trainable: bool = True):
        super().__init__(value, op="param", requires_grad=trainable)
        self.name = name
        self.owned = False  # set by the optimizer that holds value and grad

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


def _node(value, op: str, *inputs) -> Node:
    """The result of an op: a node holding ``value`` whose inputs are the
    ``(parent, vjp)`` pairs, where ``vjp`` maps the upstream gradient to that
    parent's gradient. The node keeps the pairs only if it tracks gradients;
    ``Node._backward`` runs them."""
    out = Node(value, op=op, parents=tuple([parent for parent, _ in inputs]))
    if out.requires_grad:
        out._inputs = inputs
    return out


def _accumulate(node: Node, grad) -> None:
    """Add ``grad`` into ``node.grad`` in place; the first gradient into a node
    without a buffer follows the first-touch rule (module docstring)."""
    if node.grad is not None:
        node.grad += grad
    else:
        node.grad = _first_touch(grad, node.value.shape)


def _first_touch(grad, shape: tuple) -> np.ndarray:
    """The buffer that the first gradient into a node of ``shape`` makes: the
    bits of ``zeros(shape) + grad``, in an array of its own."""
    if grad.shape == shape:
        # numpy returns a 0-d sum as a scalar; asarray gives it its own buffer
        return np.asarray(grad + 0.0)
    buffer = np.zeros(shape)
    buffer += grad
    return buffer


def _mean_node(rows: np.ndarray, op: str, *inputs) -> Node:
    """``mean_all`` of the per-row op ``_node(rows, op, *inputs)`` as one node:
    each vjp gets the rows' gradient as the unfused ``mean`` would have stored
    it, ``up / n`` added into a zero-filled buffer."""
    n = rows.size

    def through_mean(vjp):
        return lambda up: vjp(_first_touch(up / n, rows.shape))

    return _node(rows.mean(), op, *[(parent, through_mean(vjp))
                                    for parent, vjp in inputs])


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
    return _node(a.value + b.value, "add",
                 (a, lambda up: _unbroadcast(up, a.value.shape)),
                 (b, lambda up: _unbroadcast(up, b.value.shape)))


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return _node(a.value - b.value, "sub",
                 (a, lambda up: _unbroadcast(up, a.value.shape)),
                 (b, lambda up: -_unbroadcast(up, b.value.shape)))


def mul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    return _node(a.value * b.value, "mul",
                 (a, lambda up: _unbroadcast(b.value * up, a.value.shape)),
                 (b, lambda up: _unbroadcast(a.value * up, b.value.shape)))


def scale(a, c: float) -> Node:
    a = as_node(a)
    return _node(a.value * c, "scale", (a, lambda up: c * up))


def square(a) -> Node:
    a = as_node(a)
    return _node(a.value * a.value, "square", (a, lambda up: 2.0 * a.value * up))


def matmul(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatch(
            f"matmul shapes do not conform: {a.value.shape} x {b.value.shape}"
        )
    return _node(a.value @ b.value, "matmul",
                 (a, lambda up: up @ b.value.T), (b, lambda up: a.value.T @ up))


def sum_rows(a) -> Node:
    """Sum over axis 1: Node[n x d] -> Node[n]."""
    a = as_node(a)
    return _node(a.value.sum(axis=1), "sum_rows", (a, lambda up: up[:, None]))


def mean_all(a) -> Node:
    """Mean over every entry -> scalar Node."""
    a = as_node(a)
    return _node(a.value.mean(), "mean", (a, lambda up: up / a.value.size))


def column(a, j: int) -> Node:
    """Extract column j of a 2-D node -> Node[n]."""
    a = as_node(a)

    def vjp(up):
        grad = np.zeros_like(a.value)
        grad[:, j] = up
        return grad

    return _node(a.value[:, j], "column", (a, vjp))


def concat_columns(parts) -> Node:
    """Concatenate 2-D nodes along axis 1."""
    parts = [as_node(p) for p in parts]
    bounds = np.cumsum([0] + [p.value.shape[1] for p in parts])
    return _node(np.concatenate([p.value for p in parts], axis=1), "concat",
                 *[(p, lambda up, lo=lo, hi=hi: up[:, lo:hi])
                   for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])])


def log_clipped(a, hi: float = 1.0) -> Node:
    """log of a clipped to [LOG_FLOOR, hi]; zero gradient outside that range."""
    a = as_node(a)
    clipped = np.clip(a.value, LOG_FLOOR, hi)
    inside = ((a.value >= LOG_FLOOR) & (a.value <= hi)).astype(np.float64)
    return _node(np.log(clipped), "log", (a, lambda up: inside * up / clipped))


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
    return _node(value, "dense",
                 (x, lambda up: up @ weight.value.T),
                 (weight, lambda up: x.value.T @ up),
                 (bias, lambda up: up.sum(axis=0)))


def _logistic(u: float) -> float:
    """``1 / (1 + exp(u))``, and 0.0 where ``math.exp`` overflows: libm's
    ``exp`` returns inf there, so ``scipy.special.expit`` gives 0.0 too."""
    try:
        return 1.0 / (1.0 + math.exp(u))
    except OverflowError:
        return 0.0


def _expit(v: np.ndarray) -> np.ndarray:
    """The logistic of every entry of ``v`` with ``scipy.special.expit``'s
    bits, which are libm's ``exp``: numpy's real ``exp`` rounds some inputs
    differently and would change every trained parameter's bytes.

    ``exp(-v)`` is the real part of numpy's complex ``exp`` of ``-v + 0i``,
    which calls the C library's ``cexp``; glibc's returns libm's ``exp(x)``
    for ``x + 0i`` up to x = 709, but above that scales by ``exp(709)`` and
    rounds twice. So ``-v`` is capped at 709 there, and the few entries past
    it take the per-element ``_logistic``."""
    u = np.negative(v)
    e = np.exp(np.minimum(u, 709.0).astype(np.complex128)).real
    out = np.asarray(1.0 / (1.0 + e))  # an array for 0-d input too
    beyond = u > 709.0
    if beyond.any():
        out[beyond] = list(map(_logistic, u[beyond].tolist()))
    return out


def relu(x) -> Node:
    x = as_node(x)
    return _node(np.maximum(x.value, 0.0), "relu",
                 (x, lambda up: (x.value > 0).astype(np.float64) * up))


def tanh(x) -> Node:
    x = as_node(x)
    value = np.tanh(x.value)
    return _node(value, "tanh", (x, lambda up: (1.0 - value * value) * up))


def softplus(x) -> Node:
    x = as_node(x)
    return _node(np.logaddexp(0.0, x.value), "softplus",
                 (x, lambda up: _expit(x.value) * up))


def softmax(x) -> Node:
    """Row-wise softmax with max-subtraction for stability."""
    x = as_node(x)
    if x.value.ndim != 2 or x.value.shape[1] < 2:
        raise ShapeMismatch(f"softmax expects n x k with k >= 2, got {x.value.shape}")
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    return _node(p, "softmax",
                 (x, lambda up: p * (up - (up * p).sum(axis=1, keepdims=True))))


def gradient_reversal(x, lam: float) -> Node:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise ValueError(f"gradient reversal strength must be >= 0, got {lam}")
    x = as_node(x)
    return _node(x.value, "grad_reverse", (x, lambda up: -lam * up))


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
    return _node(eps * sigma.value + mu.value, "reparameterize",
                 (mu, lambda up: up), (sigma, lambda up: eps * up))


def dropout(x, rate: float, training: bool = False, rng=None) -> Node:
    """Inverted dropout with a mask drawn from ``rng``: survivors scaled by
    1/(1-rate); identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_node(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    # one pass; the bits of the 0/1 mask divided by (1 - rate)
    keep = (rng.random(x.value.shape) >= rate) * (1.0 / (1.0 - rate))
    return _node(x.value * keep, "dropout", (x, lambda up: keep * up))


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

    shared = []  # the terms of the upstream gradient that both vjps use

    def vjp(x, other, norm, first):
        # d|cos|/dx = sign(cos) * (other / (|x||other|) - cos * x / |x|^2)
        def grad(up):
            if first:
                s = np.sign(cos) * up * ok
                shared[:] = (s / denom)[:, None], s * cos
            return (shared[0] * other.value
                    - (shared[1] / np.where(ok, norm * norm, 1.0))[:, None] * x.value)
        return grad

    # _node runs a's vjp first; b's makes the shared terms only if a's never runs
    out = _node(np.abs(cos), "abs_cosine", (a, vjp(a, b, na, True)),
                (b, vjp(b, a, nb, not a.requires_grad)))
    return out, int((~ok).sum())


# ---------------------------------------------------------------------------
# backward pass


class _Sides(Node):
    """The root of a split step's loss (``add_sides``)."""

    __slots__ = ("there_grads",)


def add_sides(here: Node, there: float, there_grads) -> Node:
    """``add`` of the scalar loss ``here`` and a scalar loss of value
    ``there`` that another process built and swept (``parallel``):
    ``backward`` from it sweeps ``here``'s side, then adds the other side's
    gradients into leaves, the ``(leaf, gradient)`` pairs that
    ``there_grads()`` returns, in their order."""
    there = as_node(np.float64(there))
    out = _Sides(here.value + there.value, "add_sides", (here, there))
    if out.requires_grad:
        out._inputs = ((here, lambda up: _unbroadcast(up, here.value.shape)),)
    out.there_grads = there_grads
    return out


def backward(root: Node) -> None:
    """Reverse-mode sweep from a scalar root; accumulates into ``.grad`` of
    every reachable node that tracks gradients."""
    if root.value.size != 1:
        raise ValueError(f"backward expects a scalar root, got shape {root.value.shape}")
    if not root.requires_grad:
        return  # built from constants only: no gradient can flow
    order = _topological_order(root)
    _accumulate(root, np.ones_like(root.value))
    _sweep(order)
    if isinstance(root, _Sides):
        for leaf, grad in root.there_grads():
            _accumulate(leaf, grad)


def _sweep(order: list[Node]) -> None:
    for node in order:
        if node._inputs:
            node._backward(node.grad)


def backward_deferring(root: Node) -> list[tuple[Node, np.ndarray]]:
    """The sweep of ``backward`` from the scalar ``root``, except that each
    gradient into a leaf is returned, in order, instead of added (the other
    side of a split step: ``add_sides``)."""
    _accumulate(root, np.ones_like(root.value))
    into_leaves = []
    for node in _topological_order(root):
        up = node.grad
        for parent, vjp in node._inputs:
            if not parent.requires_grad:
                continue
            if parent.parents:
                _accumulate(parent, vjp(up))
            else:
                into_leaves.append((parent, vjp(up)))
    return into_leaves


def _topological_order(root: Node) -> list[Node]:
    """Nodes reachable from root, root first (iterative, graphs can be deep).
    Nodes hash by identity, so the visited set holds them directly."""
    order: list[Node] = []
    visited: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent not in visited:
                stack.append((parent, False))
    order.reverse()
    return order
