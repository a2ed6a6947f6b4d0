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

from dln_landscape import optim
from dln_landscape.analyze import Classification, classify
from dln_landscape.harness import InstanceSpec, gen_instance, train_gd
from dln_landscape.linalg import DEFAULT_GRAD_TOL
from dln_landscape.network import (
    FactorChain,
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
    STEP_GROW,
    STEP_INIT,
    armijo_gd,
)

MAX_STEPS = 40
STOP_GRAD_TOL = 1e-8


def prefix_suffix_products(mats):
    """Identity-padded prefix and suffix products: ``below[i] = M_i ... M_1``
    and ``above[i] = M_k ... M_{i+1}`` for ``i = 0..k``, with ``below[0]``
    and ``above[k]`` identities."""
    below = [np.eye(mats[0].shape[1])]
    for m in mats:
        below.append(m @ below[-1])
    above = [np.eye(mats[-1].shape[0])]
    for m in reversed(mats):
        above.append(above[-1] @ m)
    return below, above[::-1]


def _full_rebuild_gd(factors, loss, active_layers, max_steps, stop_grad_tol):
    """Reference descent: every step's prefix and suffix products and every
    trial's product run over all layers, the frozen ones included.  Same step
    rule (Barzilai–Borwein first trial, else doubling) and the same stops."""
    active = sorted(set(int(i) for i in active_layers))
    current = [np.array(m, dtype=np.float64) for m in factors]
    value = loss.value(running_product(current))
    t = STEP_INIT
    last = None
    steps = 0
    while True:
        below, above = prefix_suffix_products(current)
        grad = loss.gradient(below[-1])
        grads = {i: above[i].T @ grad @ below[i - 1].T for i in active}
        max_grad = max(float(np.linalg.norm(g)) for g in grads.values())
        if max_grad <= stop_grad_tol:
            status = STATUS_CRITICAL
            break
        if steps >= max_steps:
            status = STATUS_BUDGET
            break
        squared = sum(float(np.sum(g**2)) for g in grads.values())
        first = t * STEP_GROW
        if last is not None:
            last_grads, last_squared = last
            curvature = last_squared - sum(float(np.vdot(last_grads[i], grads[i])) for i in active)
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


def _counting(monkeypatch, name, log=None):
    """Replace ``optim.<name>`` with a wrapper that records ``(name, args,
    result)`` for each call in ``log``."""
    log = [] if log is None else log
    original = getattr(optim, name)

    def counted(*args):
        result = original(*args)
        log.append((name, args, result))
        return result

    monkeypatch.setattr(optim, name, counted)
    return log


def test_products_skip_the_frozen_layers_below(monkeypatch):
    chain, loss = _start((6, 6, 6, 6, 3, 6, 6, 6, 6), "rank_deficient_plateau", "quadratic", 2)
    k, lo = chain.k, 5
    running = _counting(monkeypatch, "running_product")
    forward = _counting(monkeypatch, "prefix_products")
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
    ``w @ inputs`` it is the right factor of in its ``log``.  Its own views,
    such as ``inputs.T``, have no ``log`` and record nothing."""

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        result = getattr(ufunc, method)(*(np.asarray(a) for a in args), **kwargs)
        if ufunc is np.matmul and args[-1] is self and "log" in vars(self):
            self.log.append(("w @ inputs", args, result))
        return result


@pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
def test_a_step_builds_one_forward_product_per_trial(monkeypatch, loss_kind):
    inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), loss_kind=loss_kind, seed=4))
    log = _counting(monkeypatch, "prefix_products")
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
    # ``w @ inputs`` is formed once per trial, inside its residual, and
    # never again for the gradient.
    convex = [i for i, name in enumerate(names) if name == "_gradient"]
    assert len(convex) == result.steps + 1
    for i in convex:
        formed = max(j for j in range(i) if names[j] == "_residual")
        assert log[i][1][0] is log[formed][2]
    products = [i for i, name in enumerate(names) if name == "w @ inputs"]
    if loss_kind == "quadratic":
        assert [i + 1 for i in products] == residuals
    else:
        assert products == []


# sha256 over status, steps, ``loss.hex()``, ``max_grad.hex()`` and the
# factor bytes of the runs in ``_pinned_runs``, computed while the products
# were still padded with identities.  Signed zeros are the one way dropping
# those multiplies could change a result, and the factor bytes show them.
PINNED_DESCENT_DIGEST = "0c643da5c76323d60fc8fad6cebba36ac549e5a14eb8f6276731576dc87bb2a6"


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
