import gc
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from fairvae import autodiff as ad
from fairvae import objectives as O
from gradcheck import check_grads, fd_grads, graph_nodes


class TestDense:
    def test_identity_weights(self):
        w = ad.Parameter([[1.0, 0.0], [0.0, 1.0]], "w")
        b = ad.Parameter([0.0, 0.0], "b")
        out = ad.dense(ad.Node([[1.0, 2.0]]), w, b)
        np.testing.assert_array_equal(out.value, [[1.0, 2.0]])

    def test_hand_matrix_multiply(self):
        w = ad.Parameter([[2.0, 3.0], [4.0, 5.0]], "w")
        b = ad.Parameter([1.0, 1.0], "b")
        out = ad.dense(ad.Node([[1.0, 1.0]]), w, b)
        np.testing.assert_array_equal(out.value, [[7.0, 9.0]])

    def test_backward_weight_grad_is_input_transpose(self):
        rng = np.random.default_rng(7)
        x = ad.Node(rng.uniform(-2, 2, (5, 3)))
        w = ad.Parameter(rng.uniform(-2, 2, (3, 4)), "w")
        b = ad.Parameter(rng.uniform(-2, 2, 4), "b")
        out = ad.dense(x, w, b)
        out._backward(np.ones_like(out.value))
        # with all-ones upstream, dW = x^T @ 1
        np.testing.assert_allclose(w.grad, x.value.T @ np.ones((5, 4)))
        # and against finite differences of sum(x @ w + b)
        for p in (w, b):
            p.grad[...] = 0.0
        numeric = fd_grads(
            lambda: float((x.value @ w.value + b.value).sum()), [w, b])
        np.testing.assert_allclose(x.value.T @ np.ones((5, 4)), numeric[0],
                                   rtol=1e-5, atol=1e-7)

    def test_shape_mismatch_message_names_both_shapes(self):
        w = ad.Parameter(np.zeros((3, 4)), "w")
        b = ad.Parameter(np.zeros(4), "b")
        with pytest.raises(ad.ShapeMismatch, match=r"\(2, 2\).*\(3, 4\)"):
            ad.dense(ad.Node(np.zeros((2, 2))), w, b)


def assert_logistic_bytes(v):
    """``_expit(v)`` has the bytes of ``_logistic`` applied per element, with
    no numpy warning and no overflow, division or invalid-value flag."""
    want = np.array([ad._logistic(u) for u in (-v).ravel().tolist()]
                    ).reshape(v.shape)
    with warnings.catch_warnings(), \
            np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = ad._expit(v)
    assert (got.dtype, got.shape, got.tobytes()) == \
        (want.dtype, want.shape, want.tobytes())


@pytest.fixture(scope="module")
def expit():
    """scipy is the reference only: tests that take this skip without it.
    Loaded once, outside hypothesis's timed examples, since a cold
    ``import scipy.special`` takes about as long as the 200 ms deadline."""
    return pytest.importorskip("scipy.special").expit


class TestActivations:
    def test_relu(self):
        out = ad.relu(ad.Node([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_softplus_at_zero(self):
        out = ad.softplus(ad.Node([[0.0]]))
        np.testing.assert_allclose(out.value, [[math.log(2)]], atol=1e-12)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.one_of(
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-800.0, 800.0),
                          st.sampled_from([0.0, -0.0, 700.5, -700.5, 745.2, -745.2])),
                      fill=st.nothing()))
    def test_softplus_gradient_is_scipy_expit_bytes(self, expit, v):
        """The softplus gradient has ``scipy.special.expit``'s bytes, past
        |v| = 709 (where ``exp`` overflows) and at -0.0 too. Every element is
        drawn, so a logistic from numpy's real ``exp``, which rounds about 2%
        of inputs differently, fails it."""
        x = ad.Node(v)
        out = ad.softplus(x)
        out._backward(np.ones_like(out.value))
        assert x.grad.tobytes() == expit(v).tobytes()

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=16),
                      elements=st.one_of(
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-50.0, 50.0),
                          st.floats(-746.0, -708.0, exclude_min=True,
                                    exclude_max=True)),
                      fill=st.nothing()))
    def test_logistic_is_the_per_element_reference_bytes(self, v):
        """Without scipy: the vectorised logistic has the bytes of the
        per-element ``_logistic`` over every finite float, and densely where
        -v is in (708, 746), the band where the complex ``exp`` scales its
        result and where ``exp`` overflows; it warns about nothing."""
        assert_logistic_bytes(v)

    def test_logistic_is_the_reference_bytes_on_a_grid(self):
        """The same on fixed draws: 100,001 points of -v in [708, 746] and
        normal draws at four scales."""
        rng = np.random.default_rng(0)
        assert_logistic_bytes(-np.linspace(708.0, 746.0, 100_001))
        for scale in (0.3, 3.0, 30.0, 300.0):
            assert_logistic_bytes(scale * rng.standard_normal((250, 100)))

    def test_softplus_gradient_saturates_exactly(self):
        """Without scipy too: the logistic is exactly 0.0 where ``math.exp``
        overflows (v < -709.78), exactly 1.0 far right, exactly 0.5 at ±0,
        and non-decreasing in between, with no numpy overflow warning."""
        v = np.array([[-1e308, -745.2, -709.79, -709.78, -700.5, -1.0, -0.0],
                      [0.0, 1.0, 700.5, 709.78, 709.79, 745.2, 1e308]])
        x = ad.Node(v)
        out = ad.softplus(x)
        out._backward(np.ones_like(out.value))
        g = x.grad.ravel()
        assert g[:3].tolist() == [0.0, 0.0, 0.0]
        assert 0.0 < g[3] < 1e-300  # exp(709.78) is finite: a subnormal
        assert g[6:8].tolist() == [0.5, 0.5]
        assert g[-4:].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert np.all(np.diff(g) >= 0.0)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(ad.Node([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.value, [[0.5, 0.5]])

    def test_log_odds(self):
        out = ad.softmax(ad.Node([[math.log(1), math.log(3)]]))
        np.testing.assert_allclose(out.value, [[0.25, 0.75]], atol=1e-12)

    def test_large_logits_no_overflow(self):
        out = ad.softmax(ad.Node([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-30, 30, (8, 5))
            p = ad.softmax(ad.Node(x)).value
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p > 0)


class TestGradientReversal:
    def test_forward_is_bit_identical(self):
        x = ad.Node([[3.0, -1.0]])
        out = ad.gradient_reversal(x, 0.4)
        assert out.value is x.value

    def test_backward_scales_by_minus_lambda(self):
        # 0.4 is the default adversarial strength used on the tabular task
        for lam in (0.0, 0.4, 1.0, 4.0):
            x = ad.Node([[1.0]])
            out = ad.gradient_reversal(x, lam)
            out._backward(np.array([[1.0]]))
            np.testing.assert_allclose(x.grad, [[-lam]])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ad.gradient_reversal(ad.Node([1.0]), -0.1)


class TestReparameterize:
    def test_zero_variance_returns_mu(self):
        out = ad.reparameterize(ad.Node([[5.0]]), ad.Node([[0.0]]), [[0.7]])
        np.testing.assert_array_equal(out.value, [[5.0]])

    def test_hand_value(self):
        out = ad.reparameterize(ad.Node([[0.5]]), ad.Node([[2.0]]), [[1.0]])
        np.testing.assert_array_equal(out.value, [[2.5]])

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(11)
        n = 100_000
        mu, sigma = 0.3, 1.7
        eps = rng.standard_normal((n, 1))
        out = ad.reparameterize(ad.Node(np.full((n, 1), mu)),
                                ad.Node(np.full((n, 1), sigma)), eps)
        assert abs(out.value.mean() - mu) < 4 * sigma / math.sqrt(n)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            ad.reparameterize(ad.Node([[0.0]]), ad.Node([[-1.0]]), [[0.0]])

    def test_gradients(self):
        mu = ad.Node([[1.0, 2.0]])
        sigma = ad.Node([[0.5, 1.5]])
        eps = np.array([[2.0, -1.0]])
        out = ad.reparameterize(mu, sigma, eps)
        out._backward(np.ones_like(out.value))
        np.testing.assert_array_equal(mu.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(sigma.grad, eps)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = ad.Node([[2.0, 2.0]])
        assert ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_eval_mode_is_identity(self):
        x = ad.Node([[2.0, 2.0]])
        assert ad.dropout(x, 0.5, training=False) is x

    def test_drawn_mask_matches_mask_divided_by_keep_rate(self):
        rng = np.random.default_rng(6)
        x = ad.Node(rng.uniform(-2, 2, (64, 32)))
        rate = 0.3
        out = ad.dropout(x, rate, training=True, rng=np.random.default_rng(5))
        mask = (np.random.default_rng(5).random(x.value.shape) >= rate)
        keep = mask.astype(np.float64) / (1.0 - rate)
        assert out.value.tobytes() == (x.value * keep).tobytes()
        out._backward(np.ones_like(out.value))
        assert x.grad.tobytes() == (np.zeros(x.value.shape) + keep).tobytes()


class TestFirstTouch:
    """The first gradient into an intermediate node has the bytes of zeros
    plus that gradient, in a buffer of the node's own."""

    @pytest.mark.parametrize("shape,grad", [
        ((2, 3), np.array([[1.5, -0.0, 0.0], [-2.0, 3.25, -0.0]])),
        ((2, 3), np.array([[-0.0], [2.5]])),  # broadcast, like sum_rows'
        ((), np.float64(-0.0)),
        ((), np.array(1.25)),
    ])
    def test_first_write_is_zeros_plus_grad(self, shape, grad):
        node = ad.scale(ad.Node(np.ones(shape)), 2.0)
        assert node.grad is None
        ad._accumulate(node, grad)
        expected = np.zeros(shape)
        expected += grad
        assert isinstance(node.grad, np.ndarray)
        assert (node.grad.dtype, node.grad.shape, node.grad.tobytes()) == \
            (expected.dtype, expected.shape, expected.tobytes())
        assert not np.shares_memory(node.grad, grad)

    def test_add_parents_get_their_own_buffers(self):
        """``add`` hands the same upstream array to both parents."""
        x = ad.Node(np.ones((2, 2)))
        a, b = ad.scale(x, 1.0), ad.scale(x, 1.0)
        s = ad.add(a, b)
        ad.backward(ad.mean_all(s))
        for one, other in ((a, b), (a, s), (b, s)):
            assert not np.shares_memory(one.grad, other.grad)
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 0.5))

    def test_parameter_gradient_accumulates_in_place(self):
        w = ad.Parameter(np.ones((3, 2)), "w")
        buffer = w.grad
        for _ in range(2):
            ad.backward(ad.mean_all(ad.square(w)))
        assert w.grad is buffer
        np.testing.assert_array_equal(buffer, np.full((3, 2), 2 * 2 / 6))


class TestBackward:
    def test_square(self):
        x = ad.Node([3.0])
        root = ad.mean_all(ad.square(x))
        ad.backward(root)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_shared_subexpression_accumulates(self):
        x = ad.Node([1.0])
        root = ad.mean_all(ad.add(x, x))
        ad.backward(root)
        np.testing.assert_allclose(x.grad, [2.0])

    def test_shared_graph_equals_expanded_tree(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-2, 2, (3,))
        # shared: y = (x * x) + (x * x) reusing one product node
        x1 = ad.Node(v)
        prod = ad.mul(x1, x1)
        ad.backward(ad.mean_all(ad.add(prod, prod)))
        # expanded: each product is a distinct node
        x2 = ad.Node(v)
        ad.backward(ad.mean_all(ad.add(ad.mul(x2, x2), ad.mul(x2, x2))))
        np.testing.assert_array_equal(x1.grad, x2.grad)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.Node([1.0, 2.0]))

    def test_three_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = np.asarray(rng.uniform(-2, 2, (4, 3)))
        params = []
        for i, (din, dout) in enumerate([(3, 4), (4, 4), (4, 2)]):
            params.append(ad.Parameter(rng.uniform(-1, 1, (din, dout)), f"w{i}"))
            params.append(ad.Parameter(rng.uniform(-1, 1, dout), f"b{i}"))

        def build():
            h = ad.tanh(ad.dense(ad.Node(x), params[0], params[1]))
            h = ad.softplus(ad.dense(h, params[2], params[3]))
            h = ad.dense(h, params[4], params[5])
            return ad.mean_all(ad.square(h))

        check_grads(build, params, rtol=1e-5, atol=1e-7)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(21)
            w = ad.Parameter(rng.uniform(-1, 1, (3, 2)), "w")
            b = ad.Parameter(rng.uniform(-1, 1, 2), "b")
            x = ad.Node(rng.uniform(-2, 2, (4, 3)))
            root = ad.mean_all(ad.square(ad.tanh(ad.dense(x, w, b))))
            ad.backward(root)
            return root.value.copy(), w.grad.copy()
        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


class TestTensorValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.Node([np.nan])

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.Node([np.inf])


def _fd_case(name, build_with, shapes, lo=-2.0, hi=2.0):
    """One differentiable-op finite-difference case over random inputs."""
    rng = np.random.default_rng(abs(hash(name)) % (2**32))
    params = [ad.Parameter(rng.uniform(lo, hi, s), f"p{i}")
              for i, s in enumerate(shapes)]
    return params, build_with


FD_CASES = {
    "add": ([(4, 3), (4, 3)], lambda p: ad.mean_all(ad.add(p[0], p[1]))),
    "add_broadcast_bias": ([(4, 3), (3,)], lambda p: ad.mean_all(ad.add(p[0], p[1]))),
    "sub": ([(4, 3), (4, 3)], lambda p: ad.mean_all(ad.sub(p[0], p[1]))),
    "sub_broadcast": ([(4, 3), (3,)], lambda p: ad.mean_all(ad.sub(p[0], p[1]))),
    "mul": ([(4, 3), (4, 3)], lambda p: ad.mean_all(ad.mul(p[0], p[1]))),
    "mul_row_weight": ([(4,), (4,)], lambda p: ad.mean_all(ad.mul(p[0], p[1]))),
    "scale": ([(4, 3)], lambda p: ad.mean_all(ad.scale(p[0], -2.5))),
    "square": ([(4, 3)], lambda p: ad.mean_all(ad.square(p[0]))),
    "matmul": ([(4, 3), (3, 2)], lambda p: ad.mean_all(ad.matmul(p[0], p[1]))),
    "sum_rows": ([(4, 3)], lambda p: ad.mean_all(ad.square(ad.sum_rows(p[0])))),
    "column": ([(4, 3)], lambda p: ad.mean_all(ad.square(ad.column(p[0], 1)))),
    "concat": ([(4, 2), (4, 3)],
               lambda p: ad.mean_all(ad.square(ad.concat_columns(p)))),
    "relu": ([(4, 3)], lambda p: ad.mean_all(ad.relu(p[0]))),
    "tanh": ([(4, 3)], lambda p: ad.mean_all(ad.tanh(p[0]))),
    "softplus": ([(4, 3)], lambda p: ad.mean_all(ad.softplus(p[0]))),
    "softmax": ([(4, 3)],
                lambda p: ad.mean_all(ad.square(ad.softmax(p[0])))),
    "log_clipped": ([(4, 3)],
                    lambda p: ad.mean_all(ad.log_clipped(
                        ad.add(ad.square(p[0]), ad.Node(np.full((4, 3), 0.5))),
                        hi=np.inf))),
    "abs_row_cosine": ([(4, 3), (4, 3)],
                       lambda p: ad.mean_all(ad.abs_row_cosine(p[0], p[1])[0])),
    "reparameterize": ([(4, 3), (4, 3)],
                       lambda p: ad.mean_all(ad.square(ad.reparameterize(
                           p[0], ad.softplus(p[1]),
                           np.random.default_rng(1).standard_normal((4, 3)))))),
    # the fused loss terms, each one op (tests/test_objectives.py checks their
    # bytes against the primitive chains); the target and x track gradients here
    "cross_entropy": ([(4, 3), (4, 3)],
                      lambda p: O.cross_entropy(p[0], ad.softmax(p[1]))),
    "reconstruction": ([(4, 3), (4, 3)],
                       lambda p: O.reconstruction_loss(p[0], p[1])),
    "kl": ([(4, 3), (4, 3)],
           lambda p: O.kl_to_standard_normal(p[0], ad.softplus(p[1]))),
    "dropout": ([(4, 3)],
                lambda p: ad.mean_all(ad.dropout(
                    p[0], 0.25, training=True, rng=np.random.default_rng(2)))),
}


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_every_op_matches_central_differences(name):
    """Analytic gradients agree with central FD (eps=1e-6) within 1e-5 relative."""
    shapes, builder = FD_CASES[name]
    params, build_with = _fd_case(name, builder, shapes)
    check_grads(lambda: build_with(params), params, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_dropped_graph_leaves_no_cyclic_garbage(name):
    """A backpropagated graph is freed by reference counting alone: no node
    is kept alive by a cycle through its own backward closure."""
    shapes, builder = FD_CASES[name]
    params, build_with = _fd_case(name, builder, shapes)
    gc.collect()
    gc.disable()
    try:
        ad.backward(build_with(params))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_gradient_reversal_fd_is_negated():
    """FD sees the true (identity) derivative; the graph reports -lambda times it."""
    rng = np.random.default_rng(9)
    p = ad.Parameter(rng.uniform(-2, 2, (4, 3)), "p")
    lam = 0.4

    def build():
        return ad.mean_all(ad.gradient_reversal(p, lam))

    p.grad[...] = 0.0
    ad.backward(build())
    numeric = fd_grads(lambda: float(build().value), [p])[0]
    np.testing.assert_allclose(p.grad, -lam * numeric, rtol=1e-5, atol=1e-10)


def test_abs_row_cosine_zero_rows_contribute_zero():
    a = ad.Node([[0.0, 0.0], [1.0, 0.0]])
    b = ad.Node([[1.0, 1.0], [1.0, 1.0]])
    out, zero_rows = ad.abs_row_cosine(a, b)
    assert zero_rows == 1
    np.testing.assert_allclose(out.value, [0.0, 1 / math.sqrt(2)])
    out._backward(np.ones_like(out.value))
    np.testing.assert_array_equal(a.grad[0], [0.0, 0.0])


@pytest.mark.parametrize("tracked", ["a", "b", "both"])
def test_abs_row_cosine_vjps_share_terms_per_upstream(tracked):
    """Each operand's gradient has the same bits whichever operands track
    gradients, and a second upstream gradient gets terms of its own."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal((2, 5, 3))
    ups = rng.standard_normal((2, 5))

    def grads(which, upstreams):
        a, b = (ad.Node(v) if name in which else ad.as_node(v)
                for name, v in zip("ab", values))
        out, _ = ad.abs_row_cosine(a, b)
        for up in upstreams:
            out._backward(up)
        return {name: n.grad for name, n in zip("ab", (a, b)) if name in which}

    which = "ab" if tracked == "both" else tracked
    got = grads(which, ups)
    for name in which:
        want = grads(name, ups[:1])[name] + grads(name, ups[1:])[name]
        assert got[name].tobytes() == want.tobytes(), name


class TestGradientTracking:
    def test_which_nodes_track_gradients(self):
        assert ad.Node([1.0]).requires_grad
        assert ad.Parameter([1.0], "p").requires_grad
        assert not ad.Parameter([1.0], "frozen", trainable=False).requires_grad
        assert not ad.as_node(np.ones(2)).requires_grad
        assert not ad.Node([1.0]).detach().requires_grad
        const = ad.as_node(np.ones((2, 2)))
        assert not ad.square(const).requires_grad
        assert ad.add(const, ad.Node(np.ones((2, 2)))).requires_grad

    def test_forward_allocates_no_gradient_buffer(self):
        w = ad.Parameter(np.ones((3, 2)), "w")
        b = ad.Parameter(np.zeros(2), "b")
        out = ad.softmax(ad.tanh(ad.dense(np.ones((4, 3)), w, b)))
        for node in graph_nodes(out):
            if not isinstance(node, ad.Parameter):
                assert node.grad is None, node

    def test_constants_and_frozen_parameters_get_no_gradient(self):
        rng = np.random.default_rng(4)
        x_value = rng.uniform(-1, 1, (5, 3))
        w = ad.Parameter(rng.uniform(-1, 1, (3, 4)), "w")
        b = ad.Parameter(np.zeros(4), "b")
        frozen = ad.Parameter(rng.uniform(-1, 1, (4, 2)), "frozen", trainable=False)

        def weight_grad(x):
            for p in (w, b):
                p.grad[...] = 0.0
            root = ad.mean_all(ad.square(ad.matmul(ad.dense(x, w, b), frozen)))
            ad.backward(root)
            return w.grad.copy()

        const = ad.as_node(x_value)
        tracked = ad.Node(x_value)
        g_const = weight_grad(const)
        assert const.grad is None and frozen.grad is None
        # skipping the input's gradient leaves the weight's bit-identical
        assert np.array_equal(g_const, weight_grad(tracked))
        assert tracked.grad is not None and frozen.grad is None

    def test_backward_of_constants_is_a_no_op(self):
        c = ad.as_node(np.ones(3))
        root = ad.mean_all(c)
        ad.backward(root)
        assert c.grad is None and root.grad is None

    def test_no_grad_builds_untracked_nodes_and_restores(self):
        w = ad.Parameter(np.ones((3, 2)), "w")
        b = ad.Parameter(np.zeros(2), "b")
        x = np.ones((4, 3))
        with ad.no_grad():
            out = ad.relu(ad.dense(x, w, b))
            assert ad.Node([1.0]).requires_grad  # leaves are unaffected
        assert not out.requires_grad and out.parents == () and out.grad is None
        np.testing.assert_array_equal(out.value, ad.relu(ad.dense(x, w, b)).value)
        with pytest.raises(RuntimeError), ad.no_grad():
            raise RuntimeError
        assert ad.dense(x, w, b).requires_grad
