"""Run the command line as a module: python -m depscope <command> [options]."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
