"""The resilience runtime: the taxonomy's operational counterpart.

Where :mod:`repro.taxonomy` names what goes wrong and
:mod:`repro.faultinjection` makes it happen, this package is the layer that
*absorbs* it: retry/backoff policies and bulkheads
(:mod:`policies`), a circuit breaker (:mod:`breaker`), supervised
detect-and-restart cycles with a restart budget (:mod:`supervisor`), a
per-item pipeline fault boundary (:mod:`executor`), and a ledger that
prices every recovery action against the taxonomy cell it addressed
(:mod:`ledger`).

Everything runs on the simulated clock — policies compute delays, the
simulator's ``EventScheduler`` spends them — so hardened scenarios stay
deterministic, and ``FaultCampaign.run_ab`` can measure exactly what the
hardening buys (and what it cannot: deterministic bugs shrug off
restart-style recovery, per the paper's §VII).
"""
