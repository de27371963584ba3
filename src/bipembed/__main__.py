"""``python -m bipembed``: the ``bipembed`` command line."""

import sys

from .cli import main

sys.exit(main())
