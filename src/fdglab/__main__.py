"""``python -m fdglab``: the same entry point as the ``fdglab`` script."""

import sys

from .cli import main

sys.exit(main())
