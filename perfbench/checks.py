"""Output checks for the benchmark workloads.

Every expected value here comes from the closed forms of the model,
written out again in this file; nothing is imported from ``cvqkd.rates``
and nothing is compared with a stored copy of an earlier output. Each
check returns a list of failure messages, empty when the output is
correct. ``PERTURBATIONS`` holds, per workload, deliberately broken
copies of a real output that the matching check must reject.
"""

from __future__ import annotations

import copy
import math

import numpy as np

N0 = 1.0

#: standard errors allowed between a Monte Carlo estimate and its closed
#: form; the chance of a false failure at 5 sigma is below 1e-6 per value
SIGMA = 5.0

#: relative agreement required between the sweep table and the closed form
SWEEP_RTOL = 1e-9


# ---------------------------------------------------------------------------
# closed forms, shot-noise units, bits

def squeezed_covariance(v: float, t: float, eps: float) -> tuple[float, float, float]:
    """(var_a, var_b, cov) of homodyne data through a lossy, noisy channel."""
    var_b = t * v + (1.0 - t) * N0 + t * eps * N0
    return v, var_b, math.sqrt(t * (v * v - N0 * N0))


def heterodyne_covariance(v: float, t: float, eps: float) -> tuple[float, float, float]:
    """Alice's heterodyne outcome halves the mode and adds half a vacuum."""
    _, var_b, cov = squeezed_covariance(v, t, eps)
    return (v + N0) / 2.0, var_b, cov / math.sqrt(2.0)


def cond_var(var_a: float, var_b: float, cov: float) -> float:
    return var_b - cov * cov / var_a


def squeezed_rate(v: float, t: float, eps: float) -> float:
    """log2(n0 / cond_var), the squeezed-state bound per pulse."""
    return math.log2(N0 / cond_var(*squeezed_covariance(v, t, eps)))


def coherent_rate(v: float, t: float, eps: float) -> float:
    """log2(n0 / sqrt(cv1 * cv2)) with the beam-splitter inversion
    var_a' = 2 * var_a - n0 and cov' = sqrt(2) * cov."""
    var_a, var_b, cov = heterodyne_covariance(v, t, eps)
    cv1 = cond_var(var_a, var_b, cov)
    cv2 = cond_var(2.0 * var_a - N0, var_b, math.sqrt(2.0) * cov)
    return math.log2(N0 / math.sqrt(cv1 * cv2))


def gaussian_entropy(variance: float) -> float:
    return 0.5 * math.log2(2.0 * math.pi * math.e * variance)


def rate_std_error(kept: int) -> float:
    """Standard error of log2(n0 / cond_var) estimated from `kept` Gaussian
    pairs: the residual variance has relative error sqrt(2 / kept)."""
    return math.sqrt(2.0 / kept) / math.log(2.0)


def _covariance_errors(var_a, var_b, cov, count):
    """Standard errors of the population-normalized sample moments of
    Gaussian pairs."""
    return (var_a * math.sqrt(2.0 / count), var_b * math.sqrt(2.0 / count),
            math.sqrt((var_a * var_b + cov * cov) / count))


#: H(B|A) of the catalog's Gaussian attack (v=20, t=1, eps=2), whose
#: conditional variance is 22 - 399/20 = 2.05
GAUSSIAN_ATTACK_H = gaussian_entropy(cond_var(*squeezed_covariance(20.0, 1.0, 2.0)))


# ---------------------------------------------------------------------------
# checks shared by several workloads

def check_reports(reports: list[dict]) -> list[str]:
    """Each report must hold, recomputed from its own lhs, rhs and
    tolerance rather than read from its `holds` flag."""
    failures = []
    if not reports:
        failures.append("no reports")
    for r in reports:
        slack = r["rhs"] - r["lhs"]
        if not (slack >= -r["tolerance"] and r["holds"]):
            failures.append(f"report {r['identifier']} does not hold "
                            f"(slack {slack!r}, tolerance {r['tolerance']!r})")
    return failures


def check_exit(name: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{name} exited with status {code}"]


def check_identical(digests: list[dict]) -> list[str]:
    """Reruns at one seed must give byte-identical stdout and files."""
    first = digests[0]
    return [f"rerun {i} differs from rerun 0 in {name}"
            for i, d in enumerate(digests[1:], 1)
            for name in sorted(set(first) | set(d)) if first.get(name) != d.get(name)]


# ---------------------------------------------------------------------------
# per-workload checks; each takes the dict the workload returned

def check_statistical(out: dict) -> list[str]:
    failures = check_exit("verify", out["exit"])
    failures += check_reports(out["reports"])
    if not out["all_hold"]:
        failures.append("manifest says not all reports hold")
    gauss = [r for r in out["reports"]
             if r["identifier"] == "gaussian-conditional-dominance[gaussian]"]
    if len(gauss) != 1:
        failures.append("no Gaussian-attack dominance report")
    elif not abs(gauss[0]["lhs"] - GAUSSIAN_ATTACK_H) <= gauss[0]["tolerance"]:
        r = gauss[0]
        failures.append(f"Gaussian-attack H(B|A) {r['lhs']!r} differs from "
                        f"{GAUSSIAN_ATTACK_H!r} by more than {r['tolerance']!r}")
    return failures


def check_roundtrip(out: dict) -> list[str]:
    failures = []
    for fmt, res in out["formats"].items():
        failures += check_exit(f"simulate ({fmt})", res["simulate_exit"])
        failures += check_exit(f"rate ({fmt})", res["rate_exit"])
        for column, direct in out["direct"].items():
            if not np.array_equal(res["decoded"][column], direct):
                failures.append(f"{fmt}: decoded {column} differs from run_session")
        expected = squeezed_rate(out["v"], out["t"], 0.0) / 2.0
        tolerance = SIGMA * rate_std_error(res["kept"]) / 2.0
        got = res["rate"]
        if not abs(got - expected) <= tolerance:
            failures.append(f"{fmt}: record rate {got!r} differs from the sifted "
                            f"closed form {expected!r} by more than {tolerance!r}")
        if not res["sifting_applied"]:
            failures.append(f"{fmt}: random-basis record reported unsifted")
    return failures


def check_monte_carlo(out: dict) -> list[str]:
    failures = []
    v, t = out["v"], out["t"]
    closed = {"squeezed_homodyne": squeezed_covariance(v, t, 0.0),
              "coherent_heterodyne": heterodyne_covariance(v, t, 0.0)}
    for protocol, res in out["protocols"].items():
        expected = closed[protocol]
        errors = _covariance_errors(*expected, res["kept"])
        for name, got, want, err in zip(("var_a", "var_b", "cov"), res["covariance"],
                                        expected, errors):
            if not abs(got - want) <= SIGMA * err:
                failures.append(f"{protocol}: sample {name} {got!r} is more than "
                                f"{SIGMA} standard errors from {want!r}")
        if protocol == "squeezed_homodyne":
            expected_rate = math.log2(1.0 / 0.525)
            if not abs(res["rate"] - expected_rate) <= 0.01:
                failures.append(f"squeezed rate {res['rate']!r} is not within 0.01 "
                                f"bit/pulse of log2(1/0.525)")
        if res["kept"] != res["pulses"]:
            failures.append(f"{protocol}: quantum-memory session dropped pulses")
    return failures


def check_exact(out: dict) -> list[str]:
    failures = check_exit("verify", out["verify_exit"])
    failures += check_exit("sweep", out["sweep_exit"])
    failures += check_reports(out["reports"])
    if not out["all_hold"]:
        failures.append("manifest says not all reports hold")
    v, t = out["v"], out["t"]
    eps_values = out["eps"]
    if len(eps_values) != out["steps"]:
        failures.append(f"sweep has {len(eps_values)} rows, expected {out['steps']}")
    for column, closed in (("delta_i_min_squeezed", squeezed_rate),
                           ("delta_i_min_coherent", coherent_rate)):
        for eps, got in zip(eps_values, out[column]):
            want = closed(v, t, eps)
            if not (got is not None and abs(got - want) <= SWEEP_RTOL * abs(want)):
                failures.append(f"sweep {column} at eps={eps!r}: {got!r} != {want!r}")
                break
    return failures


CHECKS = {
    "statistical-certify": check_statistical,
    "record-roundtrip": check_roundtrip,
    "monte-carlo-rate": check_monte_carlo,
    "exact-certify": check_exact,
}


# ---------------------------------------------------------------------------
# perturbed outputs each check must reject; each edit changes a deep copy
# of a real output in place

def _failed_exit(out: dict) -> None:
    out["exit"] = 5


def _worsen_report(out: dict) -> None:
    r = out["reports"][-1]
    r["lhs"] = r["rhs"] + 2.0 * r["tolerance"] + 1e-6


def _shift_gaussian_estimate(out: dict) -> None:
    """Move H(B|A) two tolerances further from its closed form, keeping
    the report itself holding."""
    r = next(r for r in out["reports"]
             if r["identifier"] == "gaussian-conditional-dominance[gaussian]")
    r["lhs"] += math.copysign(2.0 * r["tolerance"], r["lhs"] - GAUSSIAN_ATTACK_H)
    r["rhs"] = r["lhs"]


def _flip_decoded_label(out: dict) -> None:
    labels = out["formats"]["csv"]["decoded"]["label_b"]
    labels[0] = 1 - labels[0]


def _shift_record_rate(out: dict) -> None:
    out["formats"]["json-lines"]["rate"] += 0.05


def _drop_sifting(out: dict) -> None:
    out["formats"]["csv"]["sifting_applied"] = False


def _scale_covariance(out: dict) -> None:
    res = out["protocols"]["coherent_heterodyne"]
    res["covariance"] = [x * 1.01 for x in res["covariance"]]


def _shift_squeezed_rate(out: dict) -> None:
    out["protocols"]["squeezed_homodyne"]["rate"] += 0.02


def _nudge_sweep_cell(out: dict) -> None:
    out["delta_i_min_squeezed"][-1] *= 1.0 + 1e-8


def _blank_sweep_cell(out: dict) -> None:
    out["delta_i_min_coherent"][0] = None


PERTURBATIONS = {
    "statistical-certify": {
        "failed exit status": _failed_exit,
        "violated report": _worsen_report,
        "Gaussian H(B|A) off its closed form": _shift_gaussian_estimate,
    },
    "record-roundtrip": {
        "flipped decoded label": _flip_decoded_label,
        "record rate off by 0.05 bit": _shift_record_rate,
        "sifting factor not applied": _drop_sifting,
    },
    "monte-carlo-rate": {
        "covariance off by 1%": _scale_covariance,
        "squeezed rate off by 0.02 bit": _shift_squeezed_rate,
    },
    "exact-certify": {
        "violated report": _worsen_report,
        "sweep cell off by 1e-8 relative": _nudge_sweep_cell,
        "missing coherent cell": _blank_sweep_cell,
    },
}


def self_check(workload: str, out: dict) -> list[str]:
    """Names of the perturbations the workload's check failed to reject."""
    check = CHECKS[workload]
    missed = []
    for name, edit in PERTURBATIONS[workload].items():
        bad = copy.deepcopy(out)
        edit(bad)
        if not check(bad):
            missed.append(name)
    if not check_identical([{"stdout": "a"}, {"stdout": "b"}]):
        missed.append("differing reruns")
    return missed
