"""``python -m opfield``: the command-line interface of :mod:`opfield.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
