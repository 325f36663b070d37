"""The one way tests reach the EM sweep: a fit's problem, the E-step pass, the M-step, one
sweep, one chain run alone and a chain's starts, and the ``fit`` hooks that tests patch.

Every helper takes and returns the public layout, memberships ``(T, I, K)`` and blocks
``(T_p, K, O)``, and calls the engine's own function; the sweep's ``(T, K, I)`` working
layout appears only here.  Memberships or membership sums that the engine returns come back
as views of its working arrays, so handing them to the next call copies nothing.  A
hand-run loop that is a test's oracle runs over ``sweep``, never ``em._chain``, so the
engine is not checked against itself; the independent oracles are ``tests/*_reference.py``.
"""
import numpy as np

import sdsbm.em as em
import sdsbm.model as model


def _working(theta):
    """(T, I, K) memberships in the (T, K, I) working layout; a view of one is not copied."""
    return np.ascontiguousarray(np.swapaxes(theta, 1, 2))


def _public(theta):
    """Working-layout memberships or sums as a (T, I, K) view."""
    return np.swapaxes(theta, 1, 2)


def working_copy(theta):
    """The same (T, I, K) memberships, stored so that every helper here takes them uncopied."""
    return _public(_working(theta))


def problem(data, prior, n_clusters, theta_slices, p_slices, hold_p=False):
    """The per-fit constants of a pair with these slice counts; ``hold_p`` as for fixed blocks."""
    return model._Problem(data, prior, n_clusters, theta_slices, p_slices, (True, not hold_p))


def accumulate(theta, p, problem):
    """The E-step pass without the prior's pull: ``(s_theta, s_p, loglik)``."""
    s_theta, s_p, loglik = model._accumulate(_working(theta), p, problem)
    return _public(s_theta), s_p, loglik


def e_step(theta, p, problem):
    """The E-step pass with the prior's pull: ``(s_theta, s_p, loglik, objective)``."""
    s_theta, s_p, loglik, objective = model._e_step(_working(theta), p, problem)
    return _public(s_theta), s_p, loglik, objective


def m_step(s_theta, s_p, p, problem):
    """The M-step on the sums of a pass: ``(theta, p, rows_reset)``."""
    theta, p, rows_reset = em._m_step(_working(s_theta), s_p, p, problem)
    return _public(theta), p, rows_reset


def sweep(s_theta, s_p, p, problem):
    """One sweep of a chain from the sums of its last pass: the M-step, then the pass at its
    result.  Returns ``(theta, p, s_theta, s_p, loglik, objective)``."""
    theta, p, _ = m_step(s_theta, s_p, p, problem)
    return (theta, p, *e_step(theta, p, problem))


def initial(data, config, restart):
    """The Dirichlet start ``(theta, p)`` of cold restart ``restart``."""
    return em._initial(data, config, restart)


def chain_alone(data, config, theta, p):
    """One chain from ``(theta, p)`` to its stop in a plain loop over ``sweep`` that never
    pauses, the reference for a fit's winner: the final memberships and blocks, and the trace."""
    held = problem(data, config.prior, config.n_clusters, len(theta), len(p),
                   hold_p=config.p_mode == "fixed")
    s_theta, s_p, loglik, _ = e_step(theta, p, held)
    trace = []
    for _ in range(config.max_iterations):
        previous = loglik
        theta, p, s_theta, s_p, loglik, objective = sweep(s_theta, s_p, p, held)
        trace.append(objective)
        if len(trace) > 1 and abs(loglik - previous) / max(abs(previous), 1e-12) < config.tol:
            break
    return theta, p, np.array(trace)


def theta_step(data, omega_sums, avg, prior):
    """Membership half of the M-step on (T, I, K) sums plus ``beta_theta * avg``, if given."""
    T, _, K = np.shape(omega_sums)
    sums = omega_sums if avg is None else omega_sums + prior.beta_theta * avg
    return m_step(sums, None, None, problem(data, prior, K, T, T))[0]


def block_step(data, omega_sums, avg, prior, mode="dynamic", current=None):
    """Block half of the M-step: ``(p, rows_reset)``; a ``"fixed"`` mode returns ``current``."""
    T, K, _ = np.shape(omega_sums)
    sums = omega_sums if avg is None else omega_sums + prior.beta_p * avg
    _, p, rows_reset = m_step(np.zeros((T, data.n_items, K)), None if mode == "fixed" else sums,
                              current, problem(data, prior, K, data.n_epochs, T))
    return p, rows_reset


def average(coupling, theta):
    """``coupling.average(theta)`` of (T, I, K) memberships, taken in the working layout as the
    pass takes it: BLAS may round a column by its position, so these are the bits it adds."""
    return _public(coupling.average(_working(theta)))


def masked_pulls(theta, p, problem):
    """Each pulled family's prior term ``beta * vdot(<x>, log x)``, the log masked to ``<x> >
    0``, summed in the working layout's order: an oracle for the pass's unmasked log."""
    terms = []
    for values, pull in zip((_working(theta), p), problem.pulls):
        if pull > 0:
            avg = problem.coupling.average(values)
            with np.errstate(divide="ignore"):
                log_values = np.log(values, out=np.zeros_like(values), where=avg > 0)
            terms.append(pull * float(np.vdot(avg, log_values)))
    return terms


def count_calls(monkeypatch, *steps):
    """Count the calls ``fit`` makes of the named steps: "e_step", "m_step" or "chain"."""
    calls = dict.fromkeys(steps, 0)
    for step in steps:
        def counted(*args, _step=step, _original=getattr(em, "_" + step)):
            calls[_step] += 1
            return _original(*args)
        monkeypatch.setattr(em, "_" + step, counted)
    return calls


def watch_m_steps(monkeypatch, each):
    """Call ``each(theta, p)`` with the result of every M-step that ``fit`` runs."""
    original = em._m_step

    def watched(*args):
        theta, p, rows_reset = original(*args)
        each(_public(theta), p)
        return theta, p, rows_reset

    monkeypatch.setattr(em, "_m_step", watched)


def tie_every_objective(monkeypatch):
    """Make every chain yield the same objective after each sweep, leaving its result as it is."""
    chain = em._chain

    def tied(*args):
        sweeps = chain(*args)
        try:
            while True:
                next(sweeps)
                yield -1.0
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(em, "_chain", tied)
