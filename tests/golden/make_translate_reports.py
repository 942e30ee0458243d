"""Write the `translate` golden reports as JSON to stdout.

Run from the repository root:

    PYTHONPATH=src:tests python tests/golden/make_translate_reports.py \
        > tests/golden/translate_reports.json

Each case is one `deon translate` call in process: its argv, exit code,
stderr and JSON report without `timing_ms` (the layout of
kb_complete_reports.json).  Formula i (0 <= i < 300) is
`helpers.gen_formula(random.Random(i), ...)`: the logic, validity mode and
quantifiers cycle with i, and the first 20 also print their reduction
steps.  The last case is the dyadic obligation SDL rejects (exit 3).
"""

from __future__ import annotations

import json
import random

from click.testing import CliRunner

from deon import cli
from deon import formula as F

from helpers import gen_formula

SIG = "pred p/0; pred q/0; pred r/0; pred P1/1; pred Q1/1; const c0, c1, c2"
FORMULAS = 300
WITH_STEPS = 20


def argvs():
    for i in range(FORMULAS):
        rng = random.Random(i)
        logic = ("sdl", "e")[i % 2]
        quantifiers = bool(i // 4 % 2)
        steps = i < WITH_STEPS
        depth = rng.randint(1, 2 if steps else 4)
        f = gen_formula(rng, logic, depth, quantifiers=quantifiers)
        yield (["translate", F.print_formula(f), "--logic", logic]
               + (["--local"] if i // 2 % 2 else [])
               + (["--show-steps"] if steps else [])
               + ["--sig", SIG, "--format", "json"])
    yield ["translate", "O{q | p}", "--logic", "sdl", "--format", "json"]


def main():
    runner = CliRunner()
    cases = []
    for argv in argvs():
        result = runner.invoke(cli.main, argv)
        report = None
        if result.stdout:
            report = json.loads(result.stdout)
            del report["timing_ms"]
        cases.append({"argv": argv, "exit": result.exit_code, "report": report,
                      "stderr": result.stderr})
    print(json.dumps(cases, indent=1, ensure_ascii=False))


if __name__ == "__main__":
    main()
