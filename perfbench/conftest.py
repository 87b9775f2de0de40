import sys
from pathlib import Path

# The self-tests import the benchmark's modules and tagrec from this checkout.
sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parent.parent / "src")]
