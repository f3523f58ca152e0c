"""The one entry of a kmetrics process, for `python -m kmetrics` and the `kmetrics` script.

entry() turns the cyclic collector off before cli loads numpy (a command leaves
bounded garbage, argparse's parser graph), runs cli.main, flushes stdout and
stderr and ends with os._exit, skipping interpreter teardown, with the
command's exit code even when the reader of stdout has gone (BrokenPipeError).
An exception out of main still prints its traceback and exits 1.
"""

import gc
import os
import sys


def entry() -> None:
    gc.disable()
    from . import cli
    code = cli.main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone; os._exit writes nothing more
        pass
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
