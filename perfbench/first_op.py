"""Set-up probe: a fresh interpreter imports zetaline and runs one operation.

    python3 perfbench/first_op.py zeta RE IM
    python3 perfbench/first_op.py mellin_check RE IM
    python3 perfbench/first_op.py scan <zetaline scan arguments...>

Prints the operation's result (repr of the value, or the scan's exit code)
so the caller can compare it with the same operation run in its own
process.  run.py times this whole process, interpreter start included.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import zetaline  # noqa: E402

kind, rest = sys.argv[1], sys.argv[2:]
if kind == "scan":
    from zetaline.cli import main

    print(main(rest))
elif kind == "zeta":
    print(repr(zetaline.zeta(complex(float(rest[0]), float(rest[1]))).value))
elif kind == "mellin_check":
    rep = zetaline.mellin_check(complex(float(rest[0]), float(rest[1])))
    print(repr((rep.bose, rep.exp_sq, rep.sinh_form)))
else:
    raise SystemExit(f"unknown operation {kind!r}")
