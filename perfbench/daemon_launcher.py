"""The traced ``warm-serve`` daemon: installs the benchmark's layer
wrappers, then serves exactly as ``repro serve --socket`` does, through
``repro.serve.daemon.run_daemon``.  On shutdown the spans are written to
``--trace-out``.

    python3 perfbench/daemon_launcher.py --trace-out SPANS.json \\
        --socket PATH --workers N --cache-dir DIR
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("--socket", required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--cache-dir", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath("src"))
    import spans
    from repro.serve.broker import BrokerConfig
    from repro.serve.daemon import run_daemon

    store = spans.SpanStore()
    spans.install(store)
    code = run_daemon(
        BrokerConfig(workers=args.workers, cache_dir=args.cache_dir), args.socket
    )
    store.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
