"""Traced CLI process: times ``import noether_lcs.cli``, then calls
``cli.main(argv)`` for each command line under the span tracer and writes
the spans, timings and exit codes to a JSON file.

Run it under ``python -X importtime`` so the parent can split the import
cost by module from standard error.

usage: python -X importtime cli_child.py OUT_JSON ARGV_LIST_JSON
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    import noether_lcs.cli as cli

    import_s = time.perf_counter() - started

    import contextlib
    import io
    import json

    from tracer import Tracer

    out_path, argv_lists = sys.argv[1], json.loads(sys.argv[2])
    main_s, codes = [], []
    tracer = Tracer()
    with tracer:
        for argv in argv_lists:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
            main_s.append(time.perf_counter() - t0)
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "codes": codes,
                   "spans": [s.to_list() for s in tracer.spans]}, fh)
