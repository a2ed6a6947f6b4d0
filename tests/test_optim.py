"""``optim.armijo_gd`` against the loop that rebuilds every product through
the whole chain, the work it does per step, its step rule and its stops.

The descent multiplies the frozen layers below the lowest active one once
and runs each step on the shorter chain that this product heads, and its
gradients reuse the accepted trial's forward products.  Because products
accumulate from the bottom, every result must be bitwise the one of the
full-rebuild loop kept below as the reference, which pads its products with
identities.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dln_landscape import network, optim
from dln_landscape.analyze import Classification, classify
from dln_landscape.harness import InstanceSpec, gen_instance, train_gd
from dln_landscape.linalg import DEFAULT_GRAD_TOL
from dln_landscape.network import (
    FactorChain,
    _sum_squares,
    QuadraticLoss,
    chain_loss,
    interior_bottleneck,
    layer_gradients,
    running_product,
)
from dln_landscape.optim import (
    ARMIJO_C,
    BACKTRACK,
    MIN_STEP,
    STATUS_BUDGET,
    STATUS_CRITICAL,
    STATUS_LINE_SEARCH,
    STATUS_PRECISION,
    STATUS_TARGET,
    STEP_GROW,
    STEP_INIT,
    armijo_gd,
)

MAX_STEPS = 40
STOP_GRAD_TOL = 1e-8


def padded_prefix_products(mats):
    """Identity-padded prefix products: ``below[i] = M_i ... M_1`` for
    ``i = 0..k``, with ``below[0]`` the identity."""
    below = [np.eye(mats[0].shape[1])]
    for m in mats:
        below.append(m @ below[-1])
    return below


def _full_rebuild_gd(factors, loss, active_layers, max_steps, stop_grad_tol):
    """Reference descent: every step's prefix products and backward sweep and
    every trial's product run over all layers, the frozen ones included.
    Same step rule (Barzilai–Borwein first trial, else doubling), the same
    sums of squares (one ``_sum_squares`` per layer gradient) and the same
    stops."""
    active = sorted(set(int(i) for i in active_layers))
    current = [np.array(m, dtype=np.float64) for m in factors]
    value = loss.value(running_product(current))
    t = STEP_INIT
    last = None
    steps = 0
    while True:
        below = padded_prefix_products(current)
        # back[i] = (M_k ... M_{i+1})^T f'(W), carried down to layer 1.
        back = {len(current): loss.gradient(below[-1])}
        for i in range(len(current), 1, -1):
            back[i - 1] = current[i - 1].T @ back[i]
        grads = {i: back[i] @ below[i - 1].T for i in active}
        max_grad = max(float(np.linalg.norm(g)) for g in grads.values())
        if max_grad <= stop_grad_tol:
            status = STATUS_CRITICAL
            break
        if steps >= max_steps:
            status = STATUS_BUDGET
            break
        # Sums left to right: builtin sum() is compensated from Python 3.12.
        squared = 0.0
        for g in grads.values():
            squared += _sum_squares(g)
        first = t * STEP_GROW
        if last is not None:
            last_grads, last_squared = last
            inner = 0.0
            for i in active:
                inner += float(np.vdot(last_grads[i], grads[i]))
            curvature = last_squared - inner
            if curvature > 0:
                first = t * last_squared / curvature
        t = min(first, 1e12)
        with np.errstate(over="ignore", invalid="ignore"):
            while t >= MIN_STEP:
                trial = list(current)
                for i in active:
                    trial[i - 1] = current[i - 1] - t * grads[i]
                product = running_product(trial)
                trial_value = loss.value(product) if np.all(np.isfinite(product)) else np.inf
                if trial_value <= value - ARMIJO_C * t * squared:
                    break
                t *= BACKTRACK
            else:
                status = STATUS_LINE_SEARCH
                break
        if trial_value == value:
            status = STATUS_PRECISION
            break
        current, value, last = trial, trial_value, (grads, squared)
        steps += 1
    return current, value, status, steps, max_grad


def _start(dims, construction, loss_kind, seed):
    """A generic chain, or the certificate's perturbed chain of a plateau:
    the start of the post-escape descent."""
    inst = gen_instance(
        InstanceSpec(dims=dims, construction=construction, loss_kind=loss_kind, seed=seed)
    )
    if construction == "generic":
        return inst.chain, inst.loss
    report = classify(inst.chain, inst.loss)
    assert report.label is Classification.ESCAPABLE_PLATEAU
    return report.escape.perturbed_chain, inst.loss


def _active_sets(chain):
    k, cut = chain.k, interior_bottleneck(chain.widths)
    return {
        "upper": list(range(cut + 1, k + 1)),
        "lower": list(range(1, cut + 1)),
        "all": list(range(1, k + 1)),
        "sparse": list(range(2, k + 1, 2)),
    }


def _assert_same(result, reference):
    factors, value, status, steps, max_grad = reference
    assert (result.status, result.steps) == (status, steps)
    assert np.float64(result.loss).tobytes() == np.float64(value).tobytes()
    assert np.float64(result.max_grad).tobytes() == np.float64(max_grad).tobytes()
    assert len(result.factors) == len(factors)
    for got, want in zip(result.factors, factors):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", [(4, 5, 2, 5, 4), (3, 4, 4, 2, 4, 4, 3)], ids=("k4", "k6"))
@pytest.mark.parametrize("construction", ("rank_deficient_plateau", "generic"))
@pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
@pytest.mark.parametrize("seed", (0, 1))
def test_matches_full_rebuild_bitwise(dims, construction, loss_kind, seed):
    chain, loss = _start(dims, construction, loss_kind, seed)
    for name, active in _active_sets(chain).items():
        result = armijo_gd(chain.factors, loss, active, MAX_STEPS, STOP_GRAD_TOL)
        reference = _full_rebuild_gd(chain.factors, loss, active, MAX_STEPS, STOP_GRAD_TOL)
        assert result.steps > 0 or result.status == STATUS_CRITICAL, name
        _assert_same(result, reference)


@pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
def test_train_gd_path_matches_full_rebuild_bitwise(loss_kind):
    inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), loss_kind=loss_kind, seed=3))
    trained, trajectory = train_gd(inst.chain, inst.loss, max_steps=60)
    factors, value, status, steps, max_grad = _full_rebuild_gd(
        inst.chain.factors, inst.loss, range(1, inst.chain.k + 1), 60, DEFAULT_GRAD_TOL
    )
    assert (trajectory.status, trajectory.final.step) == (status, steps)
    assert trajectory.final.loss == value and trajectory.final.max_grad == max_grad
    for got, want in zip(trained.factors, factors):
        assert got.tobytes() == want.tobytes()


def _counting(monkeypatch, name, log=None, module=optim):
    """Replace ``module.<name>`` with a wrapper that records ``(name, args,
    result)`` for each call in ``log``."""
    log = [] if log is None else log
    original = getattr(module, name)

    def counted(*args):
        result = original(*args)
        log.append((name, args, result))
        return result

    monkeypatch.setattr(module, name, counted)
    return log


def _counting_forward_products(monkeypatch):
    """Record every ``prefix_products`` call of a descent: the start's,
    which ``network._finite_loss_state`` makes, and each trial's."""
    log = _counting(monkeypatch, "prefix_products", module=network)
    return _counting(monkeypatch, "prefix_products", log)


def test_products_skip_the_frozen_layers_below(monkeypatch):
    chain, loss = _start((6, 6, 6, 6, 3, 6, 6, 6, 6), "rank_deficient_plateau", "quadratic", 2)
    k, lo = chain.k, 5
    running = _counting(monkeypatch, "running_product")
    forward = _counting_forward_products(monkeypatch)
    gradient = _counting(monkeypatch, "gradient_core")
    result = armijo_gd(chain.factors, loss, range(lo, k + 1), 10, STOP_GRAD_TOL)
    assert result.steps > 0
    # One product of the lo - 1 frozen layers per call, then every forward
    # product (the start's and each trial's) and every gradient runs over
    # that head and layers lo..k.
    block = 1 + k - (lo - 1)
    assert [len(args[0]) for _, args, _ in running] == [lo - 1]
    assert forward and {len(args[0]) for _, args, _ in forward} == {block}
    assert gradient and {len(args[0]) for _, args, _ in gradient} == {block}


def test_the_frozen_layers_of_a_chain_start_are_shared():
    chain, loss = _start((6, 6, 6, 6, 3, 6, 6, 6, 6), "rank_deficient_plateau", "quadratic", 2)
    result = armijo_gd(chain.factors, loss, range(5, chain.k + 1), 10, STOP_GRAD_TOL)
    assert result.steps > 0
    assert all(a is b for a, b in zip(result.factors[:4], chain.factors[:4]))
    assert not any(a is b for a, b in zip(result.factors[4:], chain.factors[4:]))


@pytest.mark.parametrize("steps", [0, 10])
def test_a_writable_start_is_never_aliased(steps):
    chain, loss = _start((6, 6, 6, 6, 3, 6, 6, 6, 6), "rank_deficient_plateau", "quadratic", 2)
    start = [np.array(m) for m in chain.factors]
    seen = []
    result = armijo_gd(start, loss, range(5, chain.k + 1), steps, STOP_GRAD_TOL,
                       on_state=lambda step, factors, value, max_grad: seen.extend(factors))
    assert result.steps == steps
    assert not any(np.shares_memory(a, b) for a in result.factors + seen for b in start)
    frozen = result.factors[:4]
    assert not any(m.flags.writeable for m in frozen)
    for m in start:
        m[:] = 0.0
    assert all(np.array_equal(a, b) for a, b in zip(frozen, chain.factors[:4]))


def _logging_cores(monkeypatch, cls, log):
    """Replace the loss cores ``_residual``, ``_value`` and ``_gradient`` of
    ``cls`` with wrappers that record ``(name, (argument,), result)``."""
    for name in ("_residual", "_value", "_gradient"):
        def logged(self, a, name=name, core=getattr(cls, name)):
            result = core(self, a)
            log.append((name, (a,), result))
            return result

        monkeypatch.setattr(cls, name, logged)


class _LoggedInputs(np.ndarray):
    """A view of a quadratic loss's ``inputs`` that records each product
    ``w.dot(inputs)`` it is a factor of in its ``log``.

    ``ndarray.dot`` passes through no ufunc, so no ``__array_ufunc__`` sees
    the product.  It allocates its result as the subclass of the operand
    with the higher ``__array_priority__``, and ``__array_finalize__`` then
    runs with that operand as ``obj``: a new array (one with no ``base``)
    finalized from the logged ``inputs`` is a product of it.  Views of it,
    such as ``inputs.T``, have a ``base``, and they have no ``log``, so
    products with them record nothing.  Ufunc results are plain arrays.
    """

    __array_priority__ = 1.0

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        return getattr(ufunc, method)(*(np.asarray(a) for a in args), **kwargs)

    def __array_finalize__(self, obj):
        if self.base is None and "log" in getattr(obj, "__dict__", {}):
            obj.log.append(("w.dot(inputs)", (obj,), self))


@pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
def test_a_step_builds_one_forward_product_per_trial(monkeypatch, loss_kind):
    inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), loss_kind=loss_kind, seed=4))
    log = _counting_forward_products(monkeypatch)
    _counting(monkeypatch, "gradient_core", log)
    _logging_cores(monkeypatch, type(inst.loss), log)
    if loss_kind == "quadratic":
        inst.loss.inputs = inst.loss.inputs.view(_LoggedInputs)
        inst.loss.inputs.log = log
    result = armijo_gd(inst.chain.factors, inst.loss, range(1, 5), 30, STOP_GRAD_TOL)
    assert result.steps == 30
    names = [name for name, _, _ in log]
    # The forward products are the start's and one per line-search trial.
    # Right after each is built, one residual is formed from it and the
    # value core evaluates that residual (every trial is finite here) ...
    residuals = [i for i, name in enumerate(names) if name == "_residual"]
    assert names.count("prefix_products") == len(residuals) == names.count("_value")
    assert len(residuals) > result.steps
    for i in residuals:
        built = max(j for j in range(i) if names[j] == "prefix_products")
        assert log[i][1][0] is log[built][2][-1]
        assert names[i + 1] == "_value" and log[i + 1][1][0] is log[i][2]
    # ... and each step's gradient runs on the prefix products built last:
    # the start's or the accepted trial's, with none of its own ...
    gradients = [i for i, name in enumerate(names) if name == "gradient_core"]
    assert len(gradients) == result.steps + 1
    for i in gradients:
        built = max(j for j in range(i) if names[j] == "prefix_products")
        assert log[i][1][1] is log[built][2]
    # ... while the convex gradient takes the residual formed last, so
    # ``w.dot(inputs)`` is formed once per trial, inside its residual, and
    # never again for the gradient.
    convex = [i for i, name in enumerate(names) if name == "_gradient"]
    assert len(convex) == result.steps + 1
    for i in convex:
        formed = max(j for j in range(i) if names[j] == "_residual")
        assert log[i][1][0] is log[formed][2]
    products = [i for i, name in enumerate(names) if name == "w.dot(inputs)"]
    if loss_kind == "quadratic":
        assert [i + 1 for i in products] == residuals
    else:
        assert products == []


# sha256 over status, steps, ``loss.hex()``, ``max_grad.hex()`` and the
# factor bytes of the runs in ``_pinned_runs``, computed with the backward
# sweep of ``gradient_core`` and one ``_sum_squares`` per layer gradient.
# The factor bytes would show a signed zero that either one changed.
PINNED_DESCENT_DIGEST = "eea8483ecef9012e9eabdd5ad582025136b42d343272ceb8d589e5c5d78d0f72"


def _pinned_runs():
    for dims in ((4, 5, 2, 5, 4), (3, 4, 4, 2, 4, 4, 3)):
        for construction in ("generic", "rank_deficient_plateau"):
            for loss_kind in ("quadratic", "logcosh"):
                chain, loss = _start(dims, construction, loss_kind, 0)
                sets = _active_sets(chain)
                for name in ("all", "upper", "lower"):
                    yield chain.factors, loss, sets[name]


def test_descent_results_match_the_pinned_digest():
    h = hashlib.sha256()
    for factors, loss, active in _pinned_runs():
        result = armijo_gd(factors, loss, active, MAX_STEPS, STOP_GRAD_TOL)
        h.update(f"{result.status},{result.steps},{result.loss.hex()},"
                 f"{result.max_grad.hex()};".encode())
        for m in result.factors:
            h.update(m.tobytes())
    assert h.hexdigest() == PINNED_DESCENT_DIGEST


def _recorded_descent(factors, loss, active, max_steps):
    """``armijo_gd`` at ``stop_grad_tol = 0`` with every ``on_state`` call kept."""
    states = []

    def on_state(step, current, value, max_grad):
        states.append((step, [m.copy() for m in current], value))

    return armijo_gd(factors, loss, active, max_steps, 0.0, on_state=on_state), states


@pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
def test_precision_stop_returns_the_last_accepted_iterate(loss_kind):
    inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), loss_kind=loss_kind, seed=2))
    result, states = _recorded_descent(inst.chain.factors, inst.loss, range(1, 5), 10_000)
    assert result.status == STATUS_PRECISION
    assert 0 < result.steps < 10_000
    assert [step for step, _, _ in states] == list(range(result.steps + 1))
    # Every accepted step that was kept lowered the loss.
    values = [value for _, _, value in states]
    assert all(b < a for a, b in zip(values, values[1:]))
    _, factors, value = states[-1]
    assert result.loss == value == chain_loss(FactorChain(tuple(result.factors)), inst.loss)
    for got, want in zip(result.factors, factors):
        assert got.tobytes() == want.tobytes()
    # The same iterate is where a run with exactly that many steps ends.
    budgeted = armijo_gd(inst.chain.factors, inst.loss, range(1, 5), result.steps, 0.0)
    assert budgeted.status == STATUS_BUDGET
    for got, want in zip(result.factors, budgeted.factors):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
@pytest.mark.parametrize("window", (1, 10))
def test_a_target_stops_the_run_at_its_first_iterate_at_or_below_it(loss_kind, window):
    inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), loss_kind=loss_kind, seed=5))

    def run(**target):
        states = []

        def on_state(step, current, value, max_grad):
            states.append((step, [m.tobytes() for m in current], value.hex(), max_grad.hex()))

        result = armijo_gd(inst.chain.factors, inst.loss, range(1, 5), MAX_STEPS, STOP_GRAD_TOL,
                           on_state=on_state, window=window, **target)
        return result, states

    full, full_states = run()
    assert (full.status, full.steps) == (STATUS_BUDGET, MAX_STEPS)
    values = [float.fromhex(value) for _, _, value, _ in full_states]
    # Above the start and at it (the run returns at step 0), at later
    # iterates, and between two of them.
    targets = (values[0] + 1.0, values[0], values[3], 0.5 * (values[5] + values[6]), values[-1])
    for target in targets:
        result, states = run(target=target)
        first = next(i for i, value in enumerate(values) if value <= target)
        assert (result.status, result.steps) == (STATUS_TARGET, first)
        # The run's states are a bitwise prefix of the run without a target,
        # and the result is its last state.
        assert states == full_states[: first + 1]
        _, factors, value, max_grad = states[-1]
        assert (result.loss.hex(), result.max_grad.hex()) == (value, max_grad)
        assert [m.tobytes() for m in result.factors] == factors


def _steps_taken(states, loss):
    """The flattened gradient at each recorded iterate and the step size
    ``t_k`` that led from iterate ``k`` to ``k + 1``, read off the iterates."""
    flat = [
        np.concatenate([g.ravel() for g in layer_gradients(FactorChain(tuple(f)), loss)])
        for _, f, _ in states
    ]
    taken = [
        float(np.vdot(np.concatenate([(x - y).ravel() for x, y in zip(a, b)]), g) / np.vdot(g, g))
        for (_, a, _), (_, b, _), g in zip(states, states[1:], flat)
    ]
    return flat, taken


def test_negative_curvature_falls_back_to_doubling():
    # Near the saddle of (ab - 1)^2 at the origin the gradient grows along
    # the step: <g_prev, g> >= |g_prev|^2, so sᵀy <= 0 and Barzilai–Borwein
    # does not apply.  Each first trial is the last step doubled and passes.
    loss = QuadraticLoss(np.array([[1.0]]), np.array([[1.0]]))
    start = [np.array([[1e-3]]), np.array([[1e-3]])]
    result, states = _recorded_descent(start, loss, [1, 2], 3)
    assert (result.status, result.steps) == (STATUS_BUDGET, 3)
    grads, taken = _steps_taken(states, loss)
    for g_prev, g in zip(grads, grads[1:]):
        assert np.vdot(g_prev, g) >= np.vdot(g_prev, g_prev)
    assert taken == pytest.approx([STEP_INIT * STEP_GROW * 2**j for j in range(3)], rel=1e-12)


def test_first_trial_is_the_barzilai_borwein_step():
    # Each taken step must be the rule's first trial halved j >= 0 times;
    # the first trial is t_prev·|g_prev|² / (|g_prev|² - <g_prev, g>) when
    # that denominator is positive and STEP_GROW·t_prev otherwise.
    inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=0))
    result, states = _recorded_descent(inst.chain.factors, inst.loss, range(1, 5), 8)
    assert result.steps == 8
    grads, taken = _steps_taken(states, inst.loss)
    used_bb = 0
    for k in range(1, len(taken)):
        squared = float(np.vdot(grads[k - 1], grads[k - 1]))
        curvature = squared - float(np.vdot(grads[k - 1], grads[k]))
        first = taken[k - 1] * (squared / curvature if curvature > 0 else STEP_GROW)
        used_bb += curvature > 0
        halvings = np.log(taken[k] / first) / np.log(BACKTRACK)
        assert halvings == pytest.approx(round(halvings), abs=1e-6) and round(halvings) >= 0
    assert used_bb > 0


# Generic 2-wide chains of depth 28, scaled per loss so that the first
# line-search trials overflow the float range and later ones pass.
_OVERFLOW_SCALES = {"quadratic": 2.0, "logcosh": 3.0}


def _overflowing_start(loss_kind):
    inst = gen_instance(InstanceSpec(dims=(2,) * 29, loss_kind=loss_kind, seed=0))
    return [_OVERFLOW_SCALES[loss_kind] * m for m in inst.chain.factors], inst.loss


class _FiniteOnOverflowLoss(QuadraticLoss):
    """The quadratic loss, valued at the lowest finite double on a residual
    that is not finite.  That value passes every Armijo comparison, so on a
    product that overflowed only the finiteness test keeps the trial out."""

    def _value(self, r):
        if not np.isfinite(r).all():
            return float(np.finfo(np.float64).min)
        return super()._value(r)


def test_no_overflowing_trial_is_accepted_for_any_loss(monkeypatch):
    factors, quadratic = _overflowing_start("quadratic")
    loss = _FiniteOnOverflowLoss(quadratic.inputs, quadratic.targets)
    log = []
    _logging_cores(monkeypatch, _FiniteOnOverflowLoss, log)
    result, states = _recorded_descent(factors, loss, range(1, 29), 30)
    # The loss gave some overflowed trial a finite value that passed the
    # Armijo comparison.
    assert any(
        not np.isfinite(args[0]).all() and np.isfinite(value)
        for name, args, value in log if name == "_value"
    )
    assert result.steps > 0 and len(states) == result.steps + 1
    for _, current, _ in states:
        assert all(np.isfinite(m).all() for m in current)
        assert np.isfinite(running_product(current)).all()
    values = [value for _, _, value in states]
    assert all(b <= a for a, b in zip(values, values[1:]))
    # Every accept/reject decision is the quadratic loss's.
    _assert_same(result, _full_rebuild_gd(factors, quadratic, range(1, 29), 30, 0.0))


# sha256 over status, steps, ``loss.hex()``, ``max_grad.hex()`` and the
# factor bytes of 30-step descents from ``_overflowing_start``, quadratic
# then logcosh, computed with the backward sweep of ``gradient_core`` and
# one ``_sum_squares`` per layer gradient.
PINNED_OVERFLOW_DIGEST = "7b2195515f867ed374bb831f384214a22730932b6cc1fdf6ec78b23a97f521dc"


def test_overflowing_starts_match_the_pinned_digest():
    h = hashlib.sha256()
    for loss_kind in ("quadratic", "logcosh"):
        factors, loss = _overflowing_start(loss_kind)
        result = armijo_gd(factors, loss, range(1, 29), 30, 0.0)
        _assert_same(result, _full_rebuild_gd(factors, loss, range(1, 29), 30, 0.0))
        h.update(f"{result.status},{result.steps},{result.loss.hex()},"
                 f"{result.max_grad.hex()};".encode())
        for m in result.factors:
            h.update(m.tobytes())
    assert h.hexdigest() == PINNED_OVERFLOW_DIGEST


_OVERFLOW_MESSAGE = "the loss or its gradient at the end-to-end product overflows"


@pytest.mark.parametrize("active", ([1, 2, 3, 4], [4]))
def test_a_start_whose_loss_overflows_is_refused(active):
    # Finite data and a finite product, but |W X - Y|² overflows.  Warnings
    # are errors in this suite, so the start is also computed quietly.
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=1, data_scale=1e160))
    assert np.isfinite(running_product(inst.chain.factors)).all()
    with pytest.raises(ValueError, match=_OVERFLOW_MESSAGE):
        armijo_gd(inst.chain.factors, inst.loss, active, 10, STOP_GRAD_TOL)


@pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
@pytest.mark.parametrize("active", ([1, 2, 3, 4], [4]))
def test_a_start_whose_product_overflows_is_refused(loss_kind, active):
    # Scaled by 1e160 per layer the product overflows, and so does the
    # frozen head below layer 4.
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), loss_kind=loss_kind, seed=1))
    factors = [1e160 * m for m in inst.chain.factors]
    with pytest.raises(ValueError, match=_OVERFLOW_MESSAGE):
        armijo_gd(factors, inst.loss, active, 10, STOP_GRAD_TOL)


class _Stop(Exception):
    pass


def _raise_at_step_2(step, current, value, max_grad):
    if step == 2:
        raise _Stop


def _refused_start():
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=1, data_scale=1e160))
    armijo_gd(inst.chain.factors, inst.loss, range(1, 5), 10, STOP_GRAD_TOL)


def _returns():
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=0))
    armijo_gd(inst.chain.factors, inst.loss, range(1, 5), 10, STOP_GRAD_TOL)


def _on_state_raises():
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=0))
    armijo_gd(inst.chain.factors, inst.loss, range(1, 5), 10, STOP_GRAD_TOL,
              on_state=_raise_at_step_2)


@pytest.mark.parametrize("run, raises", [
    (_returns, None),
    (_on_state_raises, _Stop),
    (_refused_start, ValueError),
], ids=("returns", "on-state-raises", "start-refused"))
@pytest.mark.parametrize("outer", [{}, {"all": "raise"}], ids=("default", "raise"))
def test_the_error_state_is_restored(run, raises, outer):
    # One errstate covers the whole descent; the caller's state comes back
    # however the call ends.
    with np.errstate(**outer):
        before = np.geterr()
        if raises is None:
            run()
        else:
            with pytest.raises(raises):
                run()
        assert np.geterr() == before


class _GradientOverflowsLoss(QuadraticLoss):
    """The quadratic loss whose convex gradient overflows from its second
    evaluation on, at finite products and finite values."""

    calls = 0

    def _gradient(self, r):
        self.calls += 1
        g = super()._gradient(r)
        return g if self.calls == 1 else g * 1e300 * 1e300


def test_a_gradient_that_overflows_after_a_step_stalls_quietly():
    # Warnings are errors in this suite: the overflow passes without one,
    # and the result reports it.
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=0))
    loss = _GradientOverflowsLoss(inst.loss.inputs, inst.loss.targets)
    result = armijo_gd(inst.chain.factors, loss, range(1, 5), 10, STOP_GRAD_TOL)
    assert (result.status, result.steps) == (STATUS_LINE_SEARCH, 1)
    assert not np.isfinite(result.max_grad)
    assert np.isfinite(result.loss)


@pytest.mark.parametrize("window", (0, -1))
def test_a_window_below_one_is_refused(window):
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=0))
    with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
        armijo_gd(inst.chain.factors, inst.loss, range(1, 5), 10, STOP_GRAD_TOL, window=window)


@given(
    st.sampled_from(((3, 4, 2, 4, 3), (2, 3, 1, 4, 2), (4, 5, 2, 5, 4))),
    st.sampled_from(("generic", "rank_deficient_plateau")),
    st.sampled_from(("quadratic", "logcosh")),
    st.sampled_from(("all", "upper", "lower", "sparse")),
    st.integers(0, 2**32 - 1),
    st.integers(1, 20),
)
def test_a_windowed_search_never_rises_above_its_start(dims, construction, loss_kind, name, seed, window):
    inst = gen_instance(
        InstanceSpec(dims=dims, construction=construction, loss_kind=loss_kind, seed=seed)
    )
    chain = inst.chain
    if construction == "rank_deficient_plateau":
        report = classify(chain, inst.loss)
        assume(report.label is Classification.ESCAPABLE_PLATEAU)
        chain = report.escape.perturbed_chain
    active = _active_sets(chain)[name]
    start = armijo_gd(chain.factors, inst.loss, active, 0, STOP_GRAD_TOL).loss
    values = []
    result = armijo_gd(chain.factors, inst.loss, active, MAX_STEPS, STOP_GRAD_TOL,
                       on_state=lambda step, current, value, max_grad: values.append(value),
                       window=window)
    # Each accepted loss is at most the largest of the `window` losses before
    # it, so none rises above the start's.
    assert values[0] == start and len(values) == result.steps + 1
    for k in range(1, len(values)):
        assert values[k] <= max(values[max(0, k - window):k])
    assert all(value <= start for value in values)
    assert result.loss <= start
    # The default window is the monotone search, bit for bit.
    monotone = armijo_gd(chain.factors, inst.loss, active, MAX_STEPS, STOP_GRAD_TOL)
    one = armijo_gd(chain.factors, inst.loss, active, MAX_STEPS, STOP_GRAD_TOL, window=1)
    assert (one.status, one.steps) == (monotone.status, monotone.steps)
    assert np.float64(one.loss).tobytes() == np.float64(monotone.loss).tobytes()
    for got, want in zip(one.factors, monotone.factors, strict=True):
        assert got.tobytes() == want.tobytes()
