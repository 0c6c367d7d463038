"""``python -m ostbc_lab``: the ostbc-lab command line."""

from .cli import entry

if __name__ == "__main__":
    entry()
