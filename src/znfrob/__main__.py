"""``python3 -m znfrob``: the command-line driver, without installing it."""
from .io_cli import main

if __name__ == "__main__":
    raise SystemExit(main())
