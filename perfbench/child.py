"""Run one darbouxlab CLI job in a fresh interpreter for perfbench/run.py.

    python3 perfbench/child.py TIMES [--spans SPANS | --setup-only] -- ARGS...

ARGS are passed to `darbouxlab.cli.main` unchanged, so stdout, stderr and
the exit code are the CLI's own; an uncaught exception ends the process
with a traceback and exit code 1, as `python -m darbouxlab` would.  TIMES
receives CLOCK_MONOTONIC readings (comparable with the parent's) for the
end of `import darbouxlab.cli` and of the field load.  With --spans the
layers are traced and the spans written to SPANS at exit; with --setup-only
the job stops after loading its field.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    split = sys.argv.index("--")
    times_path, opts, args = sys.argv[1], sys.argv[2:split], sys.argv[split + 1:]
    import darbouxlab.cli as cli
    times = {"imported": time.monotonic()}
    tracer = None
    if opts[:1] == ["--spans"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer
        tracer = Tracer(" ".join(args)).install()
    load = cli.load_field

    def timed_load(*a, **kw):
        field = load(*a, **kw)
        times["field_loaded"] = time.monotonic()
        return field

    cli.load_field = timed_load
    try:
        if opts == ["--setup-only"]:
            cli.load_field(args[1])
            return 0
        return cli.main(args)
    finally:
        Path(times_path).write_text(json.dumps(times))
        if tracer is not None:
            Path(opts[1]).write_text(json.dumps(
                {"absent": tracer.absent, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
