"""Acceptance suite: one test per release criterion, all values exact.

Criterion k is the k-th check of :data:`bennequin.checks.CHECKS`, the same
registry ``bennequin verify`` runs.  Each test prints a single pass line
with its elapsed time; the stated time budgets are asserted as hard limits.
"""

import time

import acceptance_log

from bennequin import checks

# Registry name -> (test name, criterion label, budget in seconds, max_n).
# max_n is per criterion because the checks scale differently with it:
# self-linking, four-ball genus and tau stay cheap up to n = 100, while the
# twist-chain induction runs to k = 2*max_n - 1 and took about ten times its
# budget at max_n = 100.  The rest run at max_n = 10: k <= 40 for the
# induction, n <= 10 for the signature and n <= 8 for the Garside checks.
CRITERIA = {
    "self-linking": ("self_linking", "self-linking", 1.0, 100),
    "twist-chain pivots": ("fixture_signature_and_pivots", "fixture signature", 1.0, 10),
    "twist-chain induction": ("twist_chain_induction", "twist-chain induction", 5.0, 10),
    "algorithmic signature": ("algorithmic_signature", "algorithmic signature", 30.0, 10),
    "four-ball genus": ("four_ball_genus", "four-ball genus", 1.0, 100),
    "conjugacy": ("conjugacy_certificates", "conjugacy", 60.0, 10),
    "s-invariant": ("s_invariant", "s-invariant", 60.0, 10),
    "tau": ("tau", "tau", 1.0, 100),
    "defect growth": ("defect_growth", "defect growth", 120.0, 10),
    "oracle equivalence": ("oracle_equivalence", "oracle equivalence", 120.0, 10),
    "congruence invariance": ("congruence_invariance", "congruence invariance", 30.0, 10),
    "word problem": ("word_problem_oracle", "word problem", 60.0, 10),
    "detectors": ("detectors", "detectors", 1.0, 10),
}


def test_every_check_has_a_budget():
    assert list(CRITERIA) == [name for name, _ in checks.CHECKS]


def _criterion_test(check, label: str, budget: float, max_n: int):
    def test():
        outcome = "FAIL"
        start = time.perf_counter()
        try:
            check(max_n, checks.SEED)
            outcome = "PASS"
        finally:
            elapsed = time.perf_counter() - start
            acceptance_log.record(f"ACCEPTANCE {label}: {outcome} ({elapsed:.2f}s)")
        assert elapsed < budget, f"{label} took {elapsed:.2f}s of its {budget}s budget"

    return test


for _k, (_name, _check) in enumerate(checks.CHECKS, start=1):
    if _name in CRITERIA:
        _test, _label, _budget, _max_n = CRITERIA[_name]
        globals()[f"test_criterion_{_k:02d}_{_test}"] = _criterion_test(
            _check, f"{_k} {_label}", _budget, _max_n
        )
