r"""SDSRP delivery-probability and priority equations (paper Sec. III-B).

Notation (Table I of the paper):

* ``N`` — number of nodes; ``lam`` — intermeeting-rate parameter λ = 1/E(I).
* ``C_i`` — current copy tokens of message i; ``R_i`` — remaining TTL.
* ``m_i`` — nodes (excl. source) that have seen message i.
* ``n_i`` — nodes currently holding a copy.

All functions broadcast over NumPy arrays, so the Fig. 4 curves sweep a
whole axis in one call; the policy ranks one message at a time with the
same functions.

The recurring sub-expression is the exponent coefficient

.. math::

    A_i = (\log_2 C_i + 1) R_i
          - \frac{1}{2(N-1)\lambda} \log_2 C_i (\log_2 C_i + 1)

with which Eq. 6 reads :math:`P(R_i) = 1 - e^{-\lambda n_i A_i}` and the
priority (Eq. 10) is :math:`U_i = (1 - \frac{m_i}{N-1})\,\lambda A_i\,
e^{-\lambda n_i A_i}`.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import FORM_CLOSED
from repro.errors import ConfigurationError

#: The P(R_i) value that maximizes priority (paper Fig. 4): messages whose
#: expected encounter time with the destination equals their remaining
#: spray-adjusted TTL budget (Eq. 12) sit at the peak 1 - 1/e.
PEAK_P_R = 1.0 - 1.0 / np.e

#: Exponent clamps.  The negative side sits just above float64 underflow so
#: deep-saturation points (λnA large) still rank by magnitude; the positive
#: side (which only arises for *negative* coefficients, i.e. effectively
#: expired messages whose priority is already negative) is clamped low
#: enough that the ``coeff * exp(...)`` product cannot overflow — ordering
#: among such messages stays monotone in the coefficient either way.
_EXP_MIN = -700.0
_EXP_MAX = 50.0


def _check_n(n_nodes: int) -> None:
    if n_nodes < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n_nodes}")


def exponent_coefficient(copies, remaining_ttl, lam: float, n_nodes: int):
    r"""The :math:`A_i` term shared by Eqs. 6-10.

    ``copies`` must be >= 1; ``remaining_ttl`` may be any float (negative
    once expired — the resulting negative coefficient correctly ranks the
    message for immediate dropping).
    """
    _check_n(n_nodes)
    if lam <= 0:
        raise ConfigurationError(f"lambda must be positive: {lam}")
    copies = np.asarray(copies, dtype=float)
    if np.any(copies < 1):
        raise ConfigurationError("copies must be >= 1")
    remaining_ttl = np.asarray(remaining_ttl, dtype=float)
    log_c = np.log2(copies)
    spray_penalty = log_c * (log_c + 1.0) / (2.0 * (n_nodes - 1) * lam)
    return (log_c + 1.0) * remaining_ttl - spray_penalty


def p_delivered(m_seen, n_nodes: int):
    r"""Eq. 5 — :math:`P(T_i) = m_i / (N-1)`, clipped into [0, 1].

    The clip guards the *estimated* ``m_i`` (Eq. 15 over-counts late in a
    message's life); the paper implicitly assumes m_i <= N-1.
    """
    _check_n(n_nodes)
    return np.clip(np.asarray(m_seen, dtype=float) / (n_nodes - 1), 0.0, 1.0)


def p_remaining(copies, remaining_ttl, n_holders, lam: float, n_nodes: int):
    r"""Eq. 6 — probability an undelivered message reaches its destination
    within the remaining TTL, :math:`1 - e^{-\lambda n_i A_i}`."""
    coeff = exponent_coefficient(copies, remaining_ttl, lam, n_nodes)
    n_holders = np.asarray(n_holders, dtype=float)
    exponent = np.clip(-lam * n_holders * coeff, _EXP_MIN, _EXP_MAX)
    return 1.0 - np.exp(exponent)


def delivery_probability(copies, remaining_ttl, m_seen, n_holders,
                         lam: float, n_nodes: int):
    r"""Eq. 7 — :math:`P_i = P(T_i) + (1 - P(T_i)) P(R_i)`."""
    pt = p_delivered(m_seen, n_nodes)
    pr = p_remaining(copies, remaining_ttl, n_holders, lam, n_nodes)
    return pt + (1.0 - pt) * pr


def priority_closed_form(copies, remaining_ttl, m_seen, n_holders,
                         lam: float, n_nodes: int):
    r"""Eq. 10 — the SDSRP priority

    .. math::

        U_i = \left(1 - \frac{m_i}{N-1}\right) \lambda A_i\,
              e^{-\lambda n_i A_i}

    i.e. :math:`\partial P / \partial n_i`: the marginal delivery-ratio
    value of one more (or one fewer) copy of message i in the network.
    """
    coeff = exponent_coefficient(copies, remaining_ttl, lam, n_nodes)
    pt = p_delivered(m_seen, n_nodes)
    n_holders = np.asarray(n_holders, dtype=float)
    exponent = np.clip(-lam * n_holders * coeff, _EXP_MIN, _EXP_MAX)
    return (1.0 - pt) * lam * coeff * np.exp(exponent)


def priority_from_probabilities(p_t, p_r, n_holders):
    r"""Eq. 11 — the same priority expressed via probabilities:

    .. math::

        U_i = \frac{(1 - P(T_i))\,(P(R_i) - 1)\,\ln(1 - P(R_i))}{n_i}

    Monotone decreasing in :math:`P(T_i)`; in :math:`P(R_i)` it rises to a
    peak at :data:`PEAK_P_R` and falls after (Fig. 4).  At ``p_r == 1`` the
    limit is 0 (the message is certain to be delivered; an extra copy is
    worthless), handled explicitly.
    """
    p_t = np.asarray(p_t, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    n_holders = np.asarray(n_holders, dtype=float)
    one_minus = 1.0 - p_r
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (1.0 - p_t) * (-one_minus) * np.log(one_minus) / n_holders
    # lim_{p->1} (p-1) ln(1-p) = 0
    return np.where(one_minus <= 0.0, 0.0, value)


def priority_taylor(p_t, p_r, n_holders, terms: int = 8):
    r"""Eq. 13 — Taylor-truncated priority

    .. math::

        U_i \approx \frac{(1-P(T_i))(1-P(R_i))
                     \sum_{k=1}^{K} P(R_i)^k / k}{n_i}

    converging to Eq. 11 as ``terms`` grows (paper Fig. 4 shows the
    truncations approaching the "idealization"); low term counts save
    computation at a controlled accuracy loss.
    """
    if terms < 1:
        raise ConfigurationError(f"terms must be >= 1: {terms}")
    p_t = np.asarray(p_t, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    n_holders = np.asarray(n_holders, dtype=float)
    # Horner-style accumulation of sum_{k=1}^{K} x^k / k.
    acc = np.zeros(np.broadcast(p_t, p_r, n_holders).shape)
    power = np.ones_like(acc)
    for k in range(1, terms + 1):
        power = power * p_r
        acc = acc + power / k
    return (1.0 - p_t) * (1.0 - p_r) * acc / n_holders


def sdsrp_priority(copies, remaining_ttl, m_seen, n_holders, lam: float,
                   n_nodes: int, form: str = FORM_CLOSED, taylor_terms: int = 8):
    r"""The SDSRP priority :math:`U_i` in the configured form.

    Eq. 10 (:func:`priority_closed_form`) for ``form == "closed"``, else
    the Eq. 13 truncation (:func:`priority_taylor`) with *taylor_terms*
    terms.  Takes scalars or equal-shape arrays: every step is an
    elementwise ufunc, so element k of an array call equals the scalar
    call on element k to the last bit.
    """
    if form == FORM_CLOSED:
        return priority_closed_form(
            copies, remaining_ttl, m_seen, n_holders, lam, n_nodes
        )
    pt = p_delivered(m_seen, n_nodes)
    pr = p_remaining(copies, remaining_ttl, n_holders, lam, n_nodes)
    return priority_taylor(pt, pr, n_holders, terms=taylor_terms)
