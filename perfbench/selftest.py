"""Self-test of the output checks: perturbed outputs must be reported.

Each case feeds a checker a correct value, which must pass, and a
deliberately perturbed copy, which must fail. Only the checker's inputs
are perturbed, never the program. Runs at the start of every benchmark
run; standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import numpy as np

import checks


def _encoding_case():
    rng = np.random.default_rng(0)
    a_cm = rng.uniform(0, 2, size=(3, 4, 5)).astype(np.float32)
    e_vt = (a_cm * rng.uniform(-1, 1, size=a_cm.shape)).astype(np.float32)
    count = float(a_cm.sum(dtype=np.float64))
    digest = checks.encoding_digest(e_vt, a_cm)
    bumped = e_vt.copy()
    bumped.flat[7] = np.nextafter(bumped.flat[7], np.float32(np.inf))  # one ulp
    return (
        checks.check_encoding(e_vt, a_cm, count, digest),
        checks.check_encoding(bumped, a_cm, count, digest),
    )


def _logits_case():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    sample = checks.logit_sample(logits)
    reference = {"shape": list(logits.shape),
                 **{k: v.tolist() for k, v in sample.items()}}
    perturbed = logits.copy()
    perturbed[0, 1, 8, 8] += 1e-3
    return (
        checks.check_logits(logits, reference),
        checks.check_logits(perturbed, reference),
    )


def _gradient_case():
    rows = [("w", 3e-6), ("b", 8e-6)]
    return (
        checks.check_grad_rows(rows, 1e-4),
        checks.check_grad_rows(rows + [("gamma", 2e-4)], 1e-4),
    )


def _loss_case():
    history = [1.1, 0.9, 0.7]
    return (
        checks.check_loss(history, 3, 0.7),
        checks.check_loss(history[:-1] + [0.7 * 1.01], 3, 0.7),
    )


CASES = {"encoding": _encoding_case, "logits": _logits_case,
         "gradient row": _gradient_case, "final loss": _loss_case}


def run():
    """Problems with the checks themselves; empty when every case behaves."""
    problems = []
    for name, case in CASES.items():
        clean, perturbed = case()
        if clean:
            problems.append(f"{name}: correct value rejected: {clean}")
        if not perturbed:
            problems.append(f"{name}: perturbed value accepted")
    return problems


if __name__ == "__main__":
    found = run()
    for problem in found:
        print(f"FAILED: {problem}")
    print(f"{len(CASES) - len(found)} of {len(CASES)} checker cases behave" if found
          else f"all {len(CASES)} checker cases behave: perturbed outputs are reported")
    sys.exit(1 if found else 0)
