"""``python -m causaltext``: the ``causaltext`` command without the installed
script."""

import sys

from .cli import main

sys.exit(main())
