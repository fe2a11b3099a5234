"""``python -m matwalk``: the same command line as the ``matwalk`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
