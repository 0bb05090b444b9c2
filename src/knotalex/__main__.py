"""``python -m knotalex``: the command-line front end in ``knotalex.cli``."""

import sys

from .cli import main

sys.exit(main())
