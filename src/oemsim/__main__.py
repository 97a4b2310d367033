"""`python -m oemsim`: the same command line as the `oemsim` console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
