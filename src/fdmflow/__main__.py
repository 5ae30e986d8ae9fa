"""``python -m fdmflow``: the same command line as the ``fdmflow`` script."""

from .cli import main

raise SystemExit(main())
