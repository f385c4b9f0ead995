"""``python -m fluidaircomp``: the fluidaircomp command."""

import sys

from .cli import cli_main

sys.exit(cli_main())
