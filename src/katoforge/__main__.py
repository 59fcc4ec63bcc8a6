"""``python -m katoforge``: the command-line interface of ``katoforge.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
