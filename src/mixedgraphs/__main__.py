"""`python -m mixedgraphs`: the command-line interface, exit code included."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
