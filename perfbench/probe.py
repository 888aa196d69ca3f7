"""Set-up probe: the part of a boxlogic CLI run before the command's work.

    python3 perfbench/probe.py CLI_ARG...

Starts the interpreter, imports the CLI, parses the arguments and loads
the scenario file, then exits.  Timing this process from spawn to exit
gives the set-up time of the same command line run in full.
"""

import sys

from boxlogic import cli
from boxlogic.io import load_scenario

if __name__ == "__main__":
    load_scenario(cli.build_parser().parse_args(sys.argv[1:]).scenario)
