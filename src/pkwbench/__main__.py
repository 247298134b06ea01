"""``python -m pkwbench``: the ``pkwbench`` command line, also from a checkout
with ``src`` on ``PYTHONPATH``."""

import sys

from .cli import main

sys.exit(main())
