"""Child process of the benchmark: one ousignal invocation in a fresh interpreter.

    python3 launch.py run   -- <ousignal args>       as the `ousignal` script runs
    python3 launch.py trace SPANS -- <ousignal args>  the same, with timing spans
    python3 launch.py setup -- CONFIG...              import ousignal, load configs

The package is found through PYTHONPATH, which the benchmark sets to the
checkout's `src` directory.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main(argv: list[str]) -> int:
    mode = argv[0]
    rest = argv[argv.index("--") + 1:]
    if mode == "setup":
        import ousignal  # noqa: F401
        from ousignal.config import load_config

        for config in rest:
            load_config(config)
        return 0
    if mode == "run":
        from ousignal.cli import main as cli_main

        return cli_main(rest)
    if mode == "trace":
        loading = time.perf_counter()
        from spans import TRACE, Tracer

        tracer = Tracer(START)
        tracer.add_span(TRACE, loading, time.perf_counter())   # the tracer's own import
        from ousignal.cli import main as cli_main  # import time counts as cli self time

        tracer.install()
        try:
            return cli_main(rest)
        finally:
            tracer.finish()
            tracer.uninstall()
            tracer.dump(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
