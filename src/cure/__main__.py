"""`python -m cure`: the same command line as the `cure` script."""

import sys

from .cli import main

sys.exit(main())
