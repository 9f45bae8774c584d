import os
import sys

# the benchmark's tests import llbopt from the source tree and the bench
# modules by their top-level names, as bench/run.py does
_HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(_HERE), "src"), _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)
