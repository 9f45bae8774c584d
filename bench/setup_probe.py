"""Set-up probe: import llbopt and run the set-up every subcommand runs
before its first sweep: parse_config, then the CLI's own RunConfig builders
(including the tracking-target forward sweep when targets.md_kind = run).

Usage: python3 bench/setup_probe.py CONFIG
"""

import sys

from llbopt.cli import _setup
from llbopt.config import parse_config

if __name__ == "__main__":
    _setup(parse_config(sys.argv[1]))
