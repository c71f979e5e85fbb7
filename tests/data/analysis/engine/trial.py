"""GREEN fixture for DH006: worker state stays local / on results.

Named ``engine/trial.py`` so the worker-module pattern matches — the
rule must evaluate this file and stay silent.
"""

TRIAL_EPS = 1e-9  # module-level constants are fine: read, never written


def run_trial_worker(spec):
    cache = {}
    cache[spec] = 1  # local binding shadows nothing, mutates nothing shared
    totals = dict(cache)
    totals.update(cache)
    return totals
