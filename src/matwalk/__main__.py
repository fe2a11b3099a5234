"""``python -m matwalk``: the same command line as the ``matwalk`` script."""
import sys

from .cli import main

sys.exit(main())
