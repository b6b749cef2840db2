"""The program's entry: `python -m faulhaber` and the `faulhaber` script."""
import os
import sys

from .cli import main


def run() -> None:
    """Run `main` on the command line, flush stdout and stderr, and end the
    process with main's status.  The end skips the interpreter's teardown,
    which changes no output: `atexit` hooks do not run."""
    try:
        status = main()
    except SystemExit as stop:  # --help (0) or a usage error (2)
        if stop.code is not None and not isinstance(stop.code, int):
            raise  # Python prints the code and exits 1
        status = stop.code or 0
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when started with it closed (`>&-`)
                stream.flush()
        except OSError:  # `2>&-`, or stdout cut by Ctrl-C: the status stands
            pass
    os._exit(status)


if __name__ == "__main__":
    run()
