"""``python -m hypercurv``: the command line of :mod:`hypercurv.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
