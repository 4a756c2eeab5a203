"""``python -m cayleykit``: the same entry point as the ``cayleykit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
