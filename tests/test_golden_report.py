"""Byte-for-byte check of verification reports against a checked-in golden file.

Reports must not change when the code under them is reorganised: every
catalog id at sample indices 0 and 9 (index 9 is the complex sample) at 30
digits, plus the three terminating ids and two ids whose every series side
takes the Levin route at 60 digits, and the seven q ids at 60 digits, all
with seed 0. Wall
time and the start stamp are stripped; every other byte must match.

Regenerate the golden file (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden_report.py --write
"""

import json
import sys
from pathlib import Path

from hyperid.catalog import CATALOG
from hyperid.harness import SuiteReport, sample_parameters, verify_one
from hyperid.precision import PrecisionContext

GOLDEN = Path(__file__).with_name("golden_reports.json")
TERMINATING = ("saalschuetz", "theorem-1-b-neg-n", "jackson-8phi7")
LEVIN = ("theorem-1", "phi-as-3f2")
Q_IDS = (
    "bailey-6psi6", "phi65", "jackson-8phi7", "jackson-nt", "omega", "theta",
    "bailey-split",
)
RUNS = ((30, tuple(CATALOG)), (60, TERMINATING + LEVIN), (60, Q_IDS))
INDICES = (0, 9)
SEED = 0


def build_reports() -> str:
    docs = []
    for digits, ids in RUNS:
        ctx = PrecisionContext(digits=digits)
        report = SuiteReport(seed=SEED, digits=digits, started_at="")
        for ident in ids:
            case = CATALOG[ident]
            for index in INDICES:
                params = sample_parameters(case, SEED, index)
                report.results.append(verify_one(case, params, ctx, index=index))
        doc = report.to_dict()
        del doc["suite"]["started_at"]
        for result in doc["results"]:
            del result["wall_time"]
        docs.append(doc)
    return json.dumps(docs, indent=2) + "\n"


def test_reports_match_golden():
    assert build_reports() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_report.py --write")
    GOLDEN.write_text(build_reports())
