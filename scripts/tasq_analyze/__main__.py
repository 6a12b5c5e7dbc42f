import os
import sys

# Run as `python3 scripts/tasq_analyze`: make the package importable.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tasq_analyze.engine import main  # noqa: E402

sys.exit(main())
