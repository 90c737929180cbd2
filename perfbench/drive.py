"""One benchmark process: set up a workload, then measure it.

Started by ``run.py``, which times the set-up from outside.  The first line
printed is ``{"ready": <monotonic clock>}`` once set-up is done; with
``--setup-only`` the process stops there.  Otherwise the last line is the
workload's ``{"attempted", "failed", "metrics", "failures"}`` record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import measure

    if args.workload == "service_zipf":
        from service import ServiceWorkload as Workload
    else:
        from sessions import SessionWorkload as Workload

    workload = Workload(args.workload, args.seed, measure.load_reference())
    try:
        workload.setup()
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            record = workload.trace(args.seconds)
        else:
            record = workload.run(args.seconds)
    finally:
        workload.close()
    record["failures"] = workload.failures
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
