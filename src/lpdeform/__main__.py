"""`python -m lpdeform`: the `lp` command line."""

from .cli import main

main()
