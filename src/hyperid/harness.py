"""Seeded constraint-respecting sampling, verification runs, reporting.

Sampling is deterministic per (seed, identity, index): the per-sample RNG is
derived from a hash of the triple, so execution order and parallel
scheduling cannot change which parameters a sample gets. Reports carry
values as decimal strings so they stay precision-portable and diffable.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from hashlib import blake2b
from typing import Optional

from .catalog import CATALOG, IdentityCase, tolerance_rule
from .errors import SamplingExhausted, UnknownIdentityError
from .precision import PrecisionContext, format_value

REJECTION_CAP = 10_000


@dataclass(frozen=True)
class SuiteConfig:
    identities: tuple = ("all",)
    samples: int = 20
    seed: int = 0
    digits: int = 30
    max_terms: Optional[int] = None

    def resolve_ids(self):
        ids = self.identities
        if ids == ("all",) or ids == ["all"]:
            return tuple(CATALOG)
        for ident in ids:
            if ident not in CATALOG:
                raise UnknownIdentityError(f"unknown identity id {ident!r}")
        return tuple(ids)

    def context(self) -> PrecisionContext:
        kwargs = {"digits": self.digits}
        if self.max_terms is not None:
            kwargs["max_terms"] = self.max_terms
        return PrecisionContext(**kwargs)


@dataclass
class IdentityReport:
    identity: str
    index: int
    params: dict
    lhs: str
    rhs: str
    abs_err: float
    rel_err: float
    passed: bool
    terms_used: dict
    method: dict
    wall_time: float
    error: Optional[str] = None

    def to_dict(self):
        out = {
            "id": self.identity,
            "index": self.index,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
            "terms_used": self.terms_used,
            "method": self.method,
            "wall_time": self.wall_time,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class SuiteReport:
    seed: int
    digits: int
    started_at: str
    results: list = field(default_factory=list)

    @property
    def total(self):
        return len(self.results)

    @property
    def passed(self):
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self):
        return self.total - self.passed

    def max_rel_err_by_id(self):
        out = {}
        for r in self.results:
            prev = out.get(r.identity, 0.0)
            out[r.identity] = max(prev, r.rel_err)
        return out

    def to_dict(self):
        return {
            "suite": {"seed": self.seed, "digits": self.digits, "started_at": self.started_at},
            "results": [r.to_dict() for r in self.results],
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.failed,
                "max_rel_err_by_id": self.max_rel_err_by_id(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"suite seed={self.seed} digits={self.digits}"]
        by_id = {}
        for r in self.results:
            by_id.setdefault(r.identity, []).append(r)
        for ident in by_id:
            reports = by_id[ident]
            npass = sum(1 for r in reports if r.passed)
            worst = max(r.rel_err for r in reports)
            status = "ok  " if npass == len(reports) else "FAIL"
            lines.append(
                f"  {status} {ident:<18} {npass}/{len(reports)} passed"
                f"  max rel_err {worst:.3e}"
            )
            for r in reports:
                if not r.passed:
                    detail = r.error or f"rel_err {r.rel_err:.3e}"
                    lines.append(f"         sample {r.index}: {detail}")
        lines.append(f"total {self.passed}/{self.total} passed")
        return "\n".join(lines)


def rng_for(seed: int, identity: str, index: int) -> random.Random:
    key = f"{seed}|{identity}|{index}".encode()
    digest = blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sample_parameters(case: IdentityCase, seed: int, index: int):
    """Rejection-sample a constraint-satisfying parameter dict, deterministically."""
    rng = rng_for(seed, case.id, index)
    for _ in range(REJECTION_CAP):
        params = case.sampler(rng, index)
        if case.check(params):
            return params
    raise SamplingExhausted(
        f"{case.id}: constraints unsatisfied after {REJECTION_CAP} attempts"
    )


def _format_param(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if (v.denominator & (v.denominator - 1)) == 0:
            return repr(float(v))
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        sign = "-" if v.imag < 0 else "+"
        return f"{v.real!r} {sign} {abs(v.imag)!r}j"
    return str(v)


def verify_one(case: IdentityCase, params, ctx: PrecisionContext, index: int = 0) -> IdentityReport:
    """Evaluate both sides, apply the tolerance rule, never raise on
    evaluator errors: any exception becomes a failed report with
    diagnostics, so one bad sample cannot abort a suite."""
    start = time.perf_counter()
    shown = {k: _format_param(v) for k, v in params.items()}
    try:
        left = case.lhs(params, ctx)
        right = case.rhs(params, ctx)
        abs_err, rel_err, ok = tolerance_rule(left, right, ctx)
        return IdentityReport(
            identity=case.id,
            index=index,
            params=shown,
            lhs=format_value(left.value, ctx.digits),
            rhs=format_value(right.value, ctx.digits),
            abs_err=float(abs_err),
            rel_err=float(rel_err),
            passed=ok,
            terms_used={"lhs": left.terms_used, "rhs": right.terms_used},
            method={"lhs": left.method, "rhs": right.method},
            wall_time=time.perf_counter() - start,
        )
    except Exception as exc:
        return _failed(case.id, index, shown, time.perf_counter() - start, exc)


def _failed(identity: str, index: int, shown: dict, wall_time: float, exc) -> IdentityReport:
    """A failed report carrying the error's type and message as diagnostics."""
    return IdentityReport(
        identity=identity,
        index=index,
        params=shown,
        lhs="",
        rhs="",
        abs_err=float("inf"),
        rel_err=float("inf"),
        passed=False,
        terms_used={"lhs": 0, "rhs": 0},
        method={"lhs": "", "rhs": ""},
        wall_time=wall_time,
        error=f"{type(exc).__name__}: {exc}",
    )


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run all requested (identity, sample) pairs and aggregate a report.

    Samples are independent work items; order of execution cannot affect the
    sampled parameters, and results are sorted by (id, index) on emission.
    A sample whose parameters cannot be drawn (SamplingExhausted) becomes a
    failed report with no parameters.
    """
    ids = config.resolve_ids()
    ctx = config.context()
    report = SuiteReport(
        seed=config.seed,
        digits=config.digits,
        started_at=datetime.now(timezone.utc).isoformat(),
    )
    for ident in ids:
        case = CATALOG[ident]
        for index in range(config.samples):
            try:
                params = sample_parameters(case, config.seed, index)
            except SamplingExhausted as exc:
                # a sample without parameters fails alone; the suite goes on
                report.results.append(_failed(case.id, index, {}, 0.0, exc))
                continue
            report.results.append(verify_one(case, params, ctx, index=index))
    report.results.sort(key=lambda r: (r.identity, r.index))
    return report
