"""Machine-checkable certification of the entropy inequalities behind the
key-rate bounds.

Exact checks run on small discrete joint distributions, where every
Shannon quantity is an exact finite sum (the inequalities are
representation-independent, so the discrete surrogates certify the same
chain used for continuous variables). Statistical checks run estimators
on simulated attack data, with 3x the estimator's standard error as
tolerance.

Every report produced from valid inputs must hold; a failed report is a
bug or a broken tolerance, never an expected outcome.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import CapacityError, ConfigurationError, DomainError, UnphysicalInputError
from .estimators import (
    SampleSet,
    conditional_entropy_estimate,
    estimate_covariance,
)
from .rates import (
    ProtocolKind,
    conditional_variance,
    gaussian_conditional_entropy,
    gaussian_entropy,
    heterodyne_covariance_transform,
    squeezed_rate_bound,  # unused here; perfbench's tracer wraps it by this name
    vacuum_entropy,
)
from .simulator import (
    ATTACK_CATALOG,
    CATALOG_SOURCE,
    ChannelModel,
    EprSource,
    SiftingMode,
    run_session,
)

#: absolute tolerance (bits) for exact discrete checks
EXACT_TOL = 1e-9

#: largest probability table accepted for exact enumeration
MAX_TABLE_ENTRIES = 1_000_000

#: random laws per stack in discrete_suite, which bounds its memory
STACK_LAWS = 256

#: fewest samples the estimator-based checks accept
MIN_SAMPLES = 10_000


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality lhs <= rhs. Its slack rhs - lhs and its verdict,
    slack >= -tolerance, are worked out from the two sides when it is built."""

    identifier: str
    lhs: float
    rhs: float
    slack: float = field(init=False)
    holds: bool = field(init=False)
    tolerance: float = EXACT_TOL

    def __post_init__(self):
        object.__setattr__(self, "slack", self.rhs - self.lhs)
        object.__setattr__(self, "holds", bool(self.slack >= -self.tolerance))


# ---------------------------------------------------------------------------
# exact discrete checks

@dataclass(frozen=True)
class DiscreteJoint:
    """Joint law of n Alice symbols and n Bob symbols.

    The table's first n axes index A_1..A_n, the last n axes B_1..B_n.
    """

    n: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", table)
        if self.n < 1:
            raise ConfigurationError("need at least one pulse component")
        if table.ndim != 2 * self.n:
            raise ConfigurationError(
                f"table must have 2*n = {2 * self.n} axes, got {table.ndim}")
        if (table < 0).any():
            raise DomainError("probabilities must be non-negative")
        total = float(table.sum())
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities must sum to 1, got {total!r}")

    @classmethod
    def random(cls, n: int, alphabet: int, rng: np.random.Generator) -> "DiscreteJoint":
        """Flat-Dirichlet random table."""
        return cls(n, next(_random_laws(n, alphabet, 1, rng))[0])

    @classmethod
    def product(cls, pulse_tables) -> "DiscreteJoint":
        """Independent pulses from per-pulse (a, b) tables."""
        tables = [np.asarray(t, dtype=float) for t in pulse_tables]
        n = len(tables)
        joint = tables[0]
        for t in tables[1:]:
            joint = np.tensordot(joint, t, axes=0)
        # axes currently ordered a1,b1,a2,b2,...; regroup to a1..an,b1..bn
        order = [2 * i for i in range(n)] + [2 * i + 1 for i in range(n)]
        return cls(n, np.transpose(joint, order))


def _random_laws(n: int, alphabet: int, count: int, rng: np.random.Generator):
    """count flat-Dirichlet tables in stacks of at most STACK_LAWS, one gamma
    draw per stack: the same draws as count single tables."""
    for start in range(0, count, STACK_LAWS):
        flat = rng.gamma(1.0, 1.0, (min(STACK_LAWS, count - start), alphabet ** (2 * n)))
        yield (flat / flat.sum(axis=1, keepdims=True)).reshape((-1,) + (alphabet,) * (2 * n))


def _marginals(tables: np.ndarray, keep) -> np.ndarray:
    """Each law's marginal on the table axes in keep; axis 0 of a stack of
    tables indexes the laws."""
    drop = tuple(ax + 1 for ax in range(tables.ndim - 1) if ax not in keep)
    return tables.sum(axis=drop) if drop else tables


def _entropies(tables: np.ndarray, keep) -> np.ndarray:
    """Exact Shannon entropy (bits) of each law's marginal on the axes in
    keep; a zero probability adds 0."""
    p = _marginals(tables, keep).reshape(len(tables), -1)
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0)).sum(axis=1)


def _tightest_reports(identifiers, lhs: np.ndarray, rhs: np.ndarray) -> list[InequalityReport]:
    """The reports of the law that holds the tightest check: argmin keeps the first
    of equal slacks in row-major (law, check) order, as worst_of does. The exact
    checks share one tolerance, so worst_of over these holds when every law holds."""
    law = int(np.argmin(rhs - lhs)) // lhs.shape[1]
    return [InequalityReport(name, float(l), float(r))
            for name, l, r in zip(identifiers, lhs[law], rhs[law])]


def _stack_entropies(n: int, tables: np.ndarray):
    """What the chain and the mixture checks both read of a stack of laws: each
    law's H(A_vec) and H(B_vec|A_vec), and its marginals on the pairs (A_i, B_i)."""
    h_alice = _entropies(tables, tuple(range(n)))
    h_joint = _entropies(tables, range(2 * n)) - h_alice
    return h_alice, h_joint, [_marginals(tables, (i, n + i)) for i in range(n)]


def _chain_checks(n: int, tables: np.ndarray, shared):
    """The chain's identifiers, and its lhs and rhs per (law, check); shared is
    _stack_entropies(n, tables)."""
    h_alice, h_joint, pairs = shared
    alice = tuple(range(n))
    h_bi_given_all = [_entropies(tables, alice + (n + i,)) - h_alice for i in range(n)]
    h_bi_given_ai = [_entropies(pair, (0, 1)) - _entropies(tables, (i,))
                     for i, pair in enumerate(pairs)]
    identifiers = ["joint-conditional-subadditivity",
                   *(f"conditioning-cannot-increase-entropy-pulse-{i}" for i in range(n)),
                   "individual-attack-conditional-bound"]
    lhs = np.stack([h_joint, *h_bi_given_all, h_joint], axis=1)
    rhs = np.stack([sum(h_bi_given_all), *h_bi_given_ai, sum(h_bi_given_ai)], axis=1)
    return identifiers, lhs, rhs


def _mixture_checks(n: int, tables: np.ndarray, shared):
    """The mixture bound's identifier, and its lhs and rhs per law; shared is
    _stack_entropies(n, tables)."""
    shape = tables.shape[1:]
    if len(set(shape[:n])) != 1 or len(set(shape[n:])) != 1:
        raise ConfigurationError(
            f"mixture averaging needs one shared alphabet per side, got shapes {shape}")
    _, h_joint, pairs = shared
    pair = sum(pairs) / n
    h_mixture_pair = _entropies(pair, (0, 1)) - _entropies(pair, (0,))
    return ["mixture-individual-attack-bound"], h_joint[:, None], n * h_mixture_pair[:, None]


def _stack_of_one(j: DiscreteJoint) -> np.ndarray:
    if j.table.size > MAX_TABLE_ENTRIES:
        raise CapacityError(
            f"table has {j.table.size} entries; exact enumeration is capped "
            f"at {MAX_TABLE_ENTRIES}")
    return j.table[None]


def check_subadditivity_chain(j: DiscreteJoint) -> list[InequalityReport]:
    """Certify that a joint attack cannot beat the per-pulse accounting:

    1. H(B_vec | A_vec) <= sum_i H(B_i | A_vec)
    2. H(B_i | A_vec) <= H(B_i | A_i) for each i
    3. therefore H(B_vec | A_vec) <= sum_i H(B_i | A_i)
    """
    tables = _stack_of_one(j)
    return _tightest_reports(*_chain_checks(j.n, tables, _stack_entropies(j.n, tables)))


def check_mixture_lemma(j: DiscreteJoint) -> InequalityReport:
    """Certify the block-averaging step: with (A, B) distributed as the
    uniform mixture of the per-pulse pairs, H(B_vec | A_vec) <= n * H(B | A)."""
    tables = _stack_of_one(j)
    return _tightest_reports(*_mixture_checks(j.n, tables, _stack_entropies(j.n, tables)))[0]


def check_pure_state_entropic_sum(vq: float, vp: float,
                                  n0: float = 1.0) -> InequalityReport:
    """Entropic uncertainty of a pure Gaussian state's two quadratures:
    H(Q) + H(P) >= 2 * H0, with equality exactly for minimum-uncertainty
    marginals vq * vp = n0**2."""
    if not (vq > 0 and vp > 0):
        raise DomainError(f"variances must be positive, got ({vq}, {vp})")
    if vq * vp < n0 * n0 * (1.0 - 1e-12):
        raise UnphysicalInputError(
            f"variance product {vq * vp:.6g} below the vacuum limit "
            f"{n0 * n0:.6g}: no physical state has these marginals")
    return InequalityReport(
        "vacuum-entropic-uncertainty-sum",
        2.0 * vacuum_entropy(n0),
        gaussian_entropy(vq) + gaussian_entropy(vp),
    )


# ---------------------------------------------------------------------------
# statistical checks

def check_gaussian_dominance(
        s: SampleSet, identifier: str = "gaussian-conditional-dominance") -> InequalityReport:
    """Empirical H(B|A) (lhs) cannot exceed the Gaussian conditional
    entropy of the sample covariance (rhs), up to 3x the estimator's
    standard error (tolerance)."""
    if len(s) < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples, got {len(s)}")
    estimate = conditional_entropy_estimate(s)
    bound = gaussian_conditional_entropy(estimate_covariance(s))
    return InequalityReport(identifier, estimate.value, bound,
                            tolerance=3.0 * estimate.std_error)


# ---------------------------------------------------------------------------
# suites producing the verification manifest

def worst_of(reports: list[InequalityReport], identifier: str) -> InequalityReport:
    """A family's tightest member, under the family's identifier. When the
    members share one tolerance, as every family here does, it holds exactly
    when every member holds."""
    return replace(min(reports, key=lambda r: r.slack), identifier=identifier)


def discrete_suite(seed: int, trials: int) -> list[InequalityReport]:
    """Exact checks: random joint laws across block sizes and alphabets,
    the equality and redundancy corner cases, and the pure-state entropic
    sum on a grid of variance pairs."""
    rng = np.random.default_rng(seed)
    reports: list[InequalityReport] = []

    combos = [(2, 2), (2, 3), (3, 2), (3, 3)]
    per_combo = max(trials // len(combos), 1)
    for n, alphabet in combos:
        label = f"[n={n},alphabet={alphabet},trials={per_combo}]"
        chain, mixture = [], []
        for tables in _random_laws(n, alphabet, per_combo, rng):
            shared = _stack_entropies(n, tables)
            chain += _tightest_reports(*_chain_checks(n, tables, shared))
            mixture += _tightest_reports(*_mixture_checks(n, tables, shared))
        reports.append(worst_of(chain, f"subadditivity-chain{label}"))
        reports.append(worst_of(mixture, f"mixture-bound{label}"))

    # independent pulses: the chain collapses to equalities. An equality report
    # bounds each |slack| of its family by EXACT_TOL, so every member holds too.
    pulse = np.array([[0.4, 0.1], [0.2, 0.3]])
    product = DiscreteJoint.product([pulse, pulse])
    slack_cap = max(abs(r.slack) for r in check_subadditivity_chain(product))
    reports.append(InequalityReport(
        "independent-pulses-equality", slack_cap, EXACT_TOL, tolerance=0.0))

    # redundant block: B1 = B2 = noisy copy of A1; the per-pulse accounting
    # overcounts, leaving strictly positive slack in the combined bound
    redundant = np.zeros((2, 2, 2, 2))
    flip = 0.1
    for a1 in (0, 1):
        for a2 in (0, 1):
            for b in (0, 1):
                p_b = 1.0 - flip if b == a1 else flip
                redundant[a1, a2, b, b] = 0.25 * p_b
    reports.append(InequalityReport(
        "redundant-block-strict-slack", 0.25,
        check_subadditivity_chain(DiscreteJoint(2, redundant))[-1].slack))

    # pure-state entropic sum: equality on the minimum-uncertainty manifold
    grid = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 1000))
    worst_eq = max(abs(check_pure_state_entropic_sum(vq, 1.0 / vq).slack) for vq in grid)
    reports.append(InequalityReport(
        "entropic-sum-equality-on-minimum-uncertainty", worst_eq, EXACT_TOL,
        tolerance=0.0))
    thermal = [check_pure_state_entropic_sum(vq, 2.0 / vq + 0.5) for vq in grid]
    reports.append(worst_of(thermal, "entropic-sum-above-minimum-uncertainty"))
    return reports


def statistical_suite(seed: int, pulses: int) -> list[InequalityReport]:
    """Estimator-based checks on the attack catalog: Gaussian dominance
    for every noise shape (log2(n0/cv) = 2*(H0 - H_G(B|A)), so it also makes
    the covariance-only rate bound conservative), saturation for the Gaussian
    shape, strictness and the conditional-squeezing counterexample for the
    displacement shape, and the heterodyne transform cross-check."""
    reports: list[InequalityReport] = []
    n0 = CATALOG_SOURCE.n0
    for offset, (name, channel) in enumerate(ATTACK_CATALOG.items()):
        record = run_session(CATALOG_SOURCE, channel, ProtocolKind.SQUEEZED_HOMODYNE,
                             n=1, l=pulses, sifting_mode=SiftingMode.QUANTUM_MEMORY,
                             rng_seed=seed + offset)
        samples = record.samples()
        dominance = check_gaussian_dominance(
            samples, f"gaussian-conditional-dominance[{name}]")
        reports.append(dominance)
        # the estimate, its Gaussian bound and 3 standard errors
        estimate, h_gauss, tol = dominance.lhs, dominance.rhs, dominance.tolerance

        if name == "gaussian":
            # Gaussian attacks saturate the bound: slack vanishes within error
            reports.append(InequalityReport(
                "gaussian-attack-saturation", abs(h_gauss - estimate), tol,
                tolerance=0.0))
        if name == "displacement":
            # the displacement attack destroys conditional squeezing while
            # the conditional entropy stays below the vacuum entropy
            reports.append(InequalityReport(
                "counterexample-conditional-variance-at-least-vacuum",
                n0, conditional_variance(estimate_covariance(samples)), tolerance=0.0))
            reports.append(InequalityReport(
                "counterexample-conditional-entropy-below-vacuum",
                estimate + tol, vacuum_entropy(n0), tolerance=0.0))

    reports.extend(heterodyne_transform_crosscheck(seed=seed + 100,
                                                   pulses=10 * pulses))
    return reports


def heterodyne_transform_crosscheck(seed: int, pulses: int) -> list[InequalityReport]:
    """Simulate a heterodyne session on a lossless channel, where Alice's
    pre-beam-splitter variance is the source variance itself, and record
    which covariance transform reconstructs it.

    The beam-splitter inversion, the one the rate bounds use, matches the
    simulated physics. The printed closed-form convention 2*(var_a - n0),
    computed here by arithmetic only, reconstructs one shot-noise unit below
    it, and that deficit is recorded as its own check.
    """
    source = EprSource(20.0)
    # only the samples are kept, so the record's b and label columns are freed
    # before the covariance runs (samples.a is a view of its a column)
    samples = run_session(source, ChannelModel(1.0, 0.0),
                          ProtocolKind.COHERENT_HETERODYNE, n=1, l=pulses,
                          sifting_mode=SiftingMode.QUANTUM_MEMORY, rng_seed=seed).samples()
    k_hat = estimate_covariance(samples)
    # 5 standard errors on the measured variance, propagated through the
    # transform's factor 2
    tolerance = 5.0 * 2.0 * k_hat.var_a * math.sqrt(2.0 / pulses)
    transformed = heterodyne_covariance_transform(k_hat, source.n0)
    # the printed transform's variance entry, computed arithmetically:
    # constructing its full matrix fails positive semidefiniteness on
    # exactly these (lossless) statistics, which the last report records
    printed_var = 2.0 * (k_hat.var_a - source.n0)
    return [
        InequalityReport(
            "presplit-variance-matches-beamsplitter-transform",
            abs(transformed.var_a - source.v), tolerance, tolerance=0.0),
        InequalityReport(
            "printed-transform-reconstructs-one-unit-below-physical",
            abs(printed_var - (source.v - source.n0)), tolerance, tolerance=0.0),
        InequalityReport(
            "printed-transform-violates-psd-on-lossless-statistics",
            printed_var * k_hat.var_b, transformed.cov_ab * transformed.cov_ab, tolerance=0.0),
    ]


def run_suites(scope: str, seed: int, trials: int, pulses: int) -> list[InequalityReport]:
    reports: list[InequalityReport] = []
    if scope in ("discrete", "all"):
        reports.extend(discrete_suite(seed, trials))
    if scope in ("statistical", "all"):
        reports.extend(statistical_suite(seed, pulses))
    return reports


def manifest(reports: list[InequalityReport], scope: str, seed: int) -> dict:
    """Machine-readable verification manifest."""
    return {
        "tool": "cvqkd-verify",
        "scope": scope,
        "seed": seed,
        "all_hold": all(r.holds for r in reports),
        "reports": [asdict(r) for r in reports],
    }
