"""`python -m meetjoin`: the same command line as the `meetjoin` script."""

from .cli import main

raise SystemExit(main())
