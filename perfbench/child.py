"""Fresh-interpreter entry points for the benchmark's child processes.

  child.py setup CONFIG
      import moptrans.cli and load CONFIG, print "ready", then one JSON line
      with the import and load times and the loaded-module counts.
  child.py verb SPANS_OUT ARGV...
      run `moptrans.cli.main(ARGV)` with every layer traced, write the spans
      as JSON to SPANS_OUT and exit with main's code.
"""

import sys
import time


def setup(config: str) -> int:
    t0 = time.perf_counter()
    import moptrans.cli  # noqa: F401
    t1 = time.perf_counter()
    from moptrans.config import load_config

    load_config(config)
    t2 = time.perf_counter()
    print("ready", flush=True)
    import json

    print(json.dumps({
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "modules": len(sys.modules),
        "scipy_modules": sum(1 for m in sys.modules if m.split(".")[0] == "scipy"),
        "moptrans_file": moptrans.cli.__file__,
    }))
    return 0


def verb(spans_out: str, argv: list) -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.op = 0
    code = 1
    try:
        with tracer.span("import", "import.cli"):
            import moptrans.cli
        tracer.install()
        code = moptrans.cli.main(argv)
    finally:
        import json

        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(verb(sys.argv[2], sys.argv[3:]))
