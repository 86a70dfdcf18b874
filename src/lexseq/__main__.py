"""``python -m lexseq``: the command-line interface, as the ``lexseq`` script."""

from .cli import main

if __name__ == "__main__":
    main()
