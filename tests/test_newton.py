"""The damped Newton against the loop it replaced, bit for bit.

``ref_damped_newton`` is the earlier loop: it copies every per-row array
by fancy indexing on every step, takes residual norms with
``np.linalg.norm`` at the top of every step, runs every line search from
``t = 1`` and builds every Hessian from scratch.  The package's loop
indexes with slices while every row is in play, carries the accepted
trial's residual norm, tries the full step on every row before any row
backtracks, and builds each Hessian from the parts the gradient at its
point returned.  Both must return the same bytes and evaluate the same
rows at the same points in the same order.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvopt import objectives
from dvopt.objectives import AggregateObjective, LogisticObjective, gen_logistic_instance


def ref_damped_newton(grad, hess, z, targets, grad0, hess0, cap):
    b = z.shape[0]

    def take(idx):
        return slice(None) if idx.size == b else idx

    result = np.zeros_like(z)
    z = np.ascontiguousarray(z)
    x = np.zeros_like(z)
    active = np.arange(b)
    res, h = grad0 - z, hess0
    for _ in range(cap):
        norms = np.linalg.norm(res, axis=1)
        keep = ~(norms <= targets[active])
        active, res, norms = active[keep], res[keep], norms[keep]
        if not active.size:
            break
        rows = take(active)
        h = hess(x[rows], rows) if h is None else h[keep]
        step = np.linalg.solve(h, res[..., None])[..., 0]
        h = None
        t = np.ones(active.size)
        trying = np.arange(active.size)
        while trying.size:
            rows = take(active[trying])
            x_try = x[rows] - t[trying, None] * step[trying]
            res[trying] = grad(x_try, rows) - z[rows]
            new_norms = np.linalg.norm(res[trying], axis=1)
            trying = trying[~(new_norms <= (1.0 - 1e-4 * t[trying]) * norms[trying])]
            t[trying] *= 0.5
            trying = trying[t[trying] > 1e-12]
        x[take(active)] -= t[:, None] * step
        floored = np.flatnonzero(t <= 1e-12)
        if floored.size:
            rows = active[floored]
            res[floored] = grad(x[rows], rows) - z[rows]
    else:
        norms = np.linalg.norm(res, axis=1)
    result[...] = x
    return result, active, norms


def _recorded(grad, hess, b):
    """The evaluations in call order, as (name, row, point bytes), and the recording maps."""
    calls = []

    def recording(name, fn):
        def evaluate(x, rows, *parts):
            calls.extend((name, r, p.tobytes()) for r, p in zip(np.arange(b)[rows].tolist(), x))
            return fn(x, rows, *parts)

        return evaluate

    return calls, recording("grad", grad), recording("hess", hess)


def _same_solves(grad, hess, z, targets, grad0, hess0):
    """Run both loops on one problem, check them equal; the result and its evaluations.

    ``grad(x, rows)`` returns the gradient and its parts and ``hess(x, rows,
    parts)`` the Hessian, as the package's loop takes them; the reference
    gets the gradient alone and Hessians built without parts.
    """
    b = z.shape[0]
    got_calls, g, h = _recorded(grad, hess, b)
    got = objectives._damped_newton(g, h, z, targets, grad0, hess0)
    want_calls, g, h = _recorded(lambda x, rows: grad(x, rows)[0], hess, b)
    want = ref_damped_newton(g, h, z, targets, grad0, hess0, objectives._NEWTON_CAP)
    for a, w in zip(got, want):
        assert (a.dtype, a.shape, a.strides) == (w.dtype, w.shape, w.strides)
        assert a.tobytes() == w.tobytes()
    assert got_calls == want_calls
    return got, got_calls


@lru_cache(maxsize=None)
def _stack(b):
    # 10 features: a residual norm then sums its squares pairwise, not in a row
    return gen_logistic_instance(b, 6, 10, c=0.1, seed=b)._stacks[0]


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 9),
    exponents=st.lists(st.floats(-3.0, 2.0), min_size=9, max_size=9),
    seed=st.integers(0, 2**32 - 1),
    transposed=st.booleans(),
    cap=st.sampled_from([1, 2, 3, objectives._NEWTON_CAP]),
)
def test_logistic_solves_match_the_reference(b, exponents, seed, transposed, cap):
    # z scales from 1e-3 to 1e2 row by row, so rows finish at different steps
    stack = _stack(b)
    scales = 10.0 ** np.array(exponents[:b])
    z = scales[:, None] * np.random.default_rng(seed).standard_normal((b, 10))
    # the aggregate hands a stack its columns transposed, in Fortran order
    z = np.asfortranarray(z) if transposed else z
    targets = objectives._CONJ_TOL * (1.0 + np.linalg.norm(z, axis=1))
    # a low cap fails rows, whose residual norms are returned and compared
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objectives, "_NEWTON_CAP", cap)
        _same_solves(stack.grad_parts, stack.hess, z, targets, *stack.at_zero)


def test_logistic_rows_finish_at_different_steps():
    stack = _stack(6)
    z = np.array([1e-3, 1e2, 1e-2, 30.0, 0.3, 3.0])[:, None] * np.ones((6, 10))
    # row 2 is solved at zero: it is done before the first step
    z[2] = stack.at_zero[0][2]
    targets = objectives._CONJ_TOL * (1.0 + np.linalg.norm(z, axis=1))
    _, calls = _same_solves(stack.grad_parts, stack.hess, z, targets, *stack.at_zero)
    hessians = np.bincount([r for name, r, _ in calls if name == "hess"], minlength=6)
    assert 2 not in [r for _, r, _ in calls]
    assert len(set(hessians.tolist())) > 2


def _steps(calls, b):
    """Each row's gradient evaluations per Newton step, from the recorded calls.

    A step after the first starts with the row's Hessian; a step whose line
    search falls through the floor makes 40 trials and one more evaluation.
    """
    steps = [[0] for _ in range(b)]
    for name, r, _ in calls:
        if name == "hess":
            steps[r].append(0)
        else:
            steps[r][-1] += 1
    return steps


def test_carried_hessians_are_fresh_on_a_backtracking_stack():
    # Samples scaled by 1e4 saturate the sigmoids: line searches backtrack,
    # rows 1 and 3 fall through the 1e-12 floor until the cap fails them, and
    # the other rows finish at different steps.  Every Hessian the loop
    # builds from its carried parts must equal the one built afresh.  Here
    # each floored row lands on its last trial's bits (its step rounds
    # away), so the refresh of a floored row's parts is checked by
    # test_floored_rows_match_the_reference, where rows move.
    agg = gen_logistic_instance(6, 6, 5, c=0.1, seed=1)
    scaled = [LogisticObjective(1e4 * o.samples, o.labels, o.ridge, o.scale) for o in agg.locals]
    stack = AggregateObjective(tuple(scaled))._stacks[0]
    rng = np.random.default_rng(1)
    z = 10.0 ** rng.uniform(-3.0, 2.0, 6)[:, None] * rng.standard_normal((6, 5))
    targets = objectives._CONJ_TOL * (1.0 + np.linalg.norm(z, axis=1))
    carried = []

    def hess(x, rows, parts=()):
        h = stack.hess(x, rows, parts)
        if parts:
            carried.append(np.arange(6)[rows].size)
            assert h.tobytes() == stack.hess(x, rows).tobytes()
        return h

    (_, failed, _), calls = _same_solves(stack.grad_parts, hess, z, targets, *stack.at_zero)
    assert failed.tolist() == [1, 3]
    steps = _steps(calls, 6)
    assert sum(carried) == sum(len(s) - 1 for s in steps)
    assert len({len(steps[r]) for r in (0, 2, 4, 5)}) == 4
    assert [sum(1 < n < 41 for n in s) > 0 for s in steps] == [True] * 5 + [False]
    assert [sum(n == 41 for n in s) > 0 for s in steps] == [False, True, False, True, False, False]


def _cubic_grad(x, rows):
    # gradient of sum_j x_j^2/2 + x_j^4/4: the full Newton step from zero
    # overshoots a large target, so its row backtracks, and a small one's
    # does not
    return x + x**3, ()


def _cubic_hess(x, rows, parts=()):
    return np.eye(x.shape[1]) * (1.0 + 3.0 * x * x)[:, None, :]


def test_backtracking_rows_beside_full_steps():
    z = np.array([[0.1, -0.2], [3.0, 2.0], [0.05, 0.0], [-4.0, 1.0]])
    targets = objectives._CONJ_TOL * (1.0 + np.linalg.norm(z, axis=1))
    zero = np.zeros_like(z)
    _, calls = _same_solves(
        _cubic_grad, _cubic_hess, z, targets, _cubic_grad(zero, None)[0], _cubic_hess(zero, None)
    )
    # A row whose every step takes t = 1 makes one gradient evaluation per
    # step and one Hessian per step after the first (which starts from the
    # Hessian at zero); a backtracking row makes more gradient evaluations.
    grads, hessians = (
        np.bincount([r for n, r, _ in calls if n == name], minlength=4) for name in ("grad", "hess")
    )
    extra = (grads - hessians).tolist()
    assert extra[0] == extra[2] == 1
    assert extra[1] > 1 and extra[3] > 1


def test_sufficient_decrease_edge_nan_and_the_cap(monkeypatch):
    # With the Hessian taken as I, the full step from x sends the residual
    # of grad(x) = c x to (1 - c) times its norm, which passes the test
    # ``<= (1 - 1e-4 t)`` by a margin of 1e-4 at c = 2e-4.  That row and the
    # c = 0.5 row reach the cap; the c = 1 row is exact after one step.  A
    # NaN residual passes no test: its row backtracks to the floor every
    # step and fails.  The failed rows' residual norms are returned, so their
    # bits are compared too.
    coef = np.array([2e-4, 0.5, 1.0, np.nan])[:, None]

    def grad(x, rows):
        return coef[rows] * x, ()

    def hess(x, rows, parts=()):
        return np.broadcast_to(np.eye(x.shape[1]), (x.shape[0],) + 2 * (x.shape[1],))

    monkeypatch.setattr(objectives, "_NEWTON_CAP", 6)
    z = np.random.default_rng(4).standard_normal((4, 10))
    zero = np.zeros_like(z)
    (_, failed, norms), calls = _same_solves(
        grad, hess, z, np.full(4, 1e-10), grad(zero, slice(None))[0], hess(z, None)
    )
    assert sum(name == "grad" for name, _, _ in calls) == 6 + 6 + 1 + 6 * 41
    assert failed.tolist() == [0, 1, 3] and np.isnan(norms[2])


def test_floored_rows_match_the_reference(monkeypatch):
    # The residual grows away from zero and the Hessian is -(its scale) I,
    # so every line search falls through the 1e-12 floor and each row is
    # evaluated again where it lands; the cap is reached with both rows
    # failed.  The scale is a part the gradient returns, and a row lands
    # half a floor step short of its last trial, so a Hessian built from
    # that trial's part would move the row elsewhere than the reference.
    def scale(x):
        return 1.0 + 1e12 * np.linalg.norm(x, axis=1, keepdims=True)

    def grad(x, rows):
        s = scale(x)
        return s * np.ones_like(x), (s,)

    def hess(x, rows, parts=()):
        (s,) = parts or (scale(x),)
        return -s[:, :, None] * np.eye(x.shape[1])

    monkeypatch.setattr(objectives, "_NEWTON_CAP", 4)
    z = np.zeros((2, 3))
    _, calls = _same_solves(grad, hess, z, np.full(2, 1e-10), grad(z, None)[0], hess(z, None))
    # per step and row: the trials down to the floor, then the landing point
    assert sum(name == "grad" for name, _, _ in calls) == 4 * 2 * 41
