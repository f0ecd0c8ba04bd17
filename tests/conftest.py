import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# no example database, so a test run leaves no .hypothesis/ directory behind
settings.register_profile("catlog", database=None)
settings.load_profile("catlog")
