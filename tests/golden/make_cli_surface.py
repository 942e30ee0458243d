"""Write the CLI surface goldens as JSON to stdout.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_cli_surface.py \
        > tests/golden/cli_surface.json

Each case is one `deon` call in process, run from the repository root
under the program name `main`: its argv, exit code, stdout and stderr.
The cases are every `--help` text, `main` and `kb` without arguments,
one usage error of each kind, and a few accepted spellings (`--opt=value`,
a repeated option, options before the argument, `--`); none of them
prints a JSON report, so no output carries a timing.
"""

from __future__ import annotations

import json

from click.testing import CliRunner

from deon import cli

KB = "fixtures/gdpr_e.kb"

ARGVS = [
    # help texts
    ["--help"],
    ["kb", "--help"],
    ["parse", "--help"],
    ["eval", "--help"],
    ["check", "--help"],
    ["model", "--help"],
    ["translate", "--help"],
    ["correspondence", "--help"],
    ["kb", "consistency", "--help"],
    ["kb", "entail", "--help"],
    ["kb", "comply", "--help"],
    ["check", "--bound", "x", "--help"],
    ["kb", "entail", "--help", "nope.kb"],
    ["--help", "check"],
    # groups without a command
    [],
    ["kb"],
    # missing arguments
    ["check"],
    ["model"],
    ["kb", "entail"],
    # missing required options
    ["kb", "entail", KB],
    ["eval", "p"],
    ["correspondence", "cv"],
    # unknown options
    ["check", "p", "--bond", "2"],
    ["check", "p", "--xyz"],
    ["check", "-p"],
    ["check", "p", "-h"],
    ["--bond"],
    ["kb", "--logic", "e"],
    # unknown commands
    ["chek", "p"],
    ["kb", "consist", KB],
    # bad values
    ["check", "p", "--logic", "foo"],
    ["check", "p", "--logic="],
    ["check", "p", "--bound", "x"],
    ["check", "p", "--bound", "x", "--logic", "foo"],
    ["check", "p", "--logic", "foo", "--bound", "x"],
    ["kb", "consistency", "nope.kb"],
    ["eval", "p", "--model", "nope.json"],
    ["translate", "p", "--out", KB],
    # extra arguments
    ["check", "p", "q"],
    ["check", "p", "q", "r"],
    ["check", "p", "q", "--bound", "x"],
    # option values
    ["check", "p", "--bound"],
    ["check", "p", "--complete=1"],
    ["check", "p", "--sig", "foo"],
    ["correspondence", "cv", "--frame", "shiny"],
    # accepted spellings
    ["check", "p -> p", "--bound=1", "--logic=sdl"],
    ["check", "p", "--bound", "3", "--bound", "1"],
    ["check", "--logic", "sdl", "--bound", "1", "p -> p"],
    ["model", "--bound", "1", "--", "p", "~q"],
    ["parse", "--", "-p"],
    ["parse", "-", "--logic", "sdl"],
    ["check", "p", "--sig", "--format"],
]


def main():
    runner = CliRunner()
    cases = []
    for argv in ARGVS:
        result = runner.invoke(cli.main, argv)
        cases.append({"argv": argv, "exit": result.exit_code, "stdout": result.stdout,
                      "stderr": result.stderr})
    print(json.dumps(cases, indent=1, ensure_ascii=False))


if __name__ == "__main__":
    main()
