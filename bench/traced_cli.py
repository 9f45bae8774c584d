"""Run one llbopt CLI command with every traced function wrapped.

Usage: python3 bench/traced_cli.py SPANS_JSON RUN_ID CLI_ARGS...

Writes the spans to SPANS_JSON when the command ends, whatever its exit
code, and exits with the CLI's exit code.
"""

import sys

import spans


def main(argv) -> int:
    out_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    recorder = spans.Recorder(run_id)
    _, missing = spans.install(recorder)
    import llbopt.cli

    code = 1
    try:
        code = llbopt.cli.main(cli_args)
    finally:
        recorder.dump(out_path, {"missing": missing, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
