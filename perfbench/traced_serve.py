"""``python -m repro serve`` for the traced run of ``tcp-small-frames``.

    python3 perfbench/traced_serve.py LAYERS.json serve --index ... --listen ...

Serves exactly as the CLI does.  On SIGUSR1 it installs the pool timing
shims (the traced half of the run begins); after the server has shut
down it writes what they recorded to ``LAYERS.json``.
"""

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import Shims, install_pool_shims  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    shims = Shims()
    signal.signal(signal.SIGUSR1, lambda signum, frame: install_pool_shims(shims))
    from repro.__main__ import main as cli

    code = cli(argv)
    shims.remove()
    out.write_text(json.dumps({"times": shims.times, "values": shims.values}))
    return code


if __name__ == "__main__":
    sys.exit(main())
