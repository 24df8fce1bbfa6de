"""Make the harness package importable when pytest collects this directory."""

import sys
from pathlib import Path

_LEDGER = Path(__file__).resolve().parent.parent
for _path in (_LEDGER, _LEDGER.parent.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
