"""``python -m genpos``: the command-line front end of ``genpos.cli``."""

import sys

from .cli import main

sys.exit(main())
