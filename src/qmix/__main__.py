"""``python -m qmix``: the same entry point as the ``qmix`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
