"""``python -m bchlab``: the command-line interface."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
