"""Flag reading and exit handling shared by the experiment scripts."""

import argparse
import os
import sys

from cag import BudgetError
from cag.io import parse_rational


def count(least: int):
    """An argparse type for an integer flag of at least `least`: ASCII
    integer text, read by `cag.io.parse_rational` with no denominator, so
    "1_0", " 2" and non-ASCII digits are refused, not coerced."""

    def parse(text: str) -> int:
        try:
            value = parse_rational(text)
        except ValueError as exc:  # malformed, or past the digit limit
            raise argparse.ArgumentTypeError(str(exc)) from None
        if "/" in text:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
        return int(value)

    return parse


def run(main) -> None:
    """Run `main`.  A library refusal ends the script with one stderr line,
    exit 1 for a BudgetError (a size limit) and 2 for a ValueError; a
    reader that stops early (`| head`) ends it quietly."""
    name = os.path.basename(sys.argv[0])
    try:
        main()
    except BrokenPipeError:
        # send the unflushed rest of stdout to devnull so the exit does not
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except BudgetError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        sys.exit(1)
    except ValueError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        sys.exit(2)
