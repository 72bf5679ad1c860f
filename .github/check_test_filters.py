"""Fail when a `cargo test` filter in a workflow file matches no test.

Usage: python3 check_test_filters.py <workflow.yml> <list.txt>

`list.txt` is the output of `cargo test --workspace -q -- --list`: one
`<path>: test` line per test. A filter is a positional argument of a
`cargo test` command, before or after its `--`; like libtest, a filter
matches a test whose path contains it. Exit status 1 names every filter
that matches nothing.
"""

import shlex
import sys

# Options of `cargo test` (before `--`) and of libtest (after it) that take
# a value, so the word after them is not a filter.
CARGO_VALUED = {
    "-p", "--package", "--test", "--bench", "--bin", "--example",
    "--manifest-path", "--features", "-F", "-j", "--jobs", "--target",
    "--profile", "--exclude", "--color", "--message-format",
}
LIBTEST_VALUED = {
    "--skip", "--test-threads", "--format", "--color", "--logfile",
    "--report-time",
}
# Where a shell command line stops being the `cargo test` invocation.
ENDS = {"|", "||", "&&", ";", "2>&1", ">", "2>"}


def filters(command):
    """The test filters of one `cargo test ...` command line."""
    words = shlex.split(command, comments=True)[2:]
    found, after_dashes, skip_next = [], False, False
    for word in words:
        if word in ENDS or word.startswith((">", "2>")):
            break
        if skip_next:
            skip_next = False
            continue
        if word == "--" and not after_dashes:
            after_dashes = True
            continue
        if word.startswith("-"):
            valued = LIBTEST_VALUED if after_dashes else CARGO_VALUED
            skip_next = word in valued
            continue
        found.append(word)
    return found


def main(workflow, listing):
    tests = [
        line.rsplit(": ", 1)[0]
        for line in open(listing, encoding="utf-8")
        if line.rstrip().endswith((": test", ": bench"))
    ]
    if not tests:
        sys.exit(f"{listing}: no tests listed")
    commands = [
        line[line.index("cargo test"):].strip()
        for line in open(workflow, encoding="utf-8")
        if "cargo test" in line and not line.lstrip().startswith("#")
    ]
    missing = [
        (name, command)
        for command in commands
        for name in filters(command)
        if not any(name in test for test in tests)
    ]
    for name, command in missing:
        print(f"no test matches filter {name!r} in: {command}")
    print(f"{len(commands)} cargo test commands, {len(tests)} listed tests, {len(missing)} dead filters")
    sys.exit(1 if missing else 0)


if __name__ == "__main__":
    main(*sys.argv[1:])
