"""Entry point for ``python -m flagcw``."""

from .cli import main

main()
