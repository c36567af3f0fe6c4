"""`python -m finfree ...`: the `finfree` command without an installed entry point."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
