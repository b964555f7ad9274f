import sys
from pathlib import Path

# imported before any test module loads numpy, so gaa pins BLAS to one
# thread and the tests in this process compute as the CLI does
import gaa

# allow `from helpers import ...` inside test modules
sys.path.insert(0, str(Path(__file__).parent))
