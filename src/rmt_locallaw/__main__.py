"""`python -m rmt_locallaw <tag> ...`: the same CLI as the `rmt` script."""

import sys

from .runner import main

if __name__ == "__main__":
    sys.exit(main())
