"""Fail when a `cargo test` filter in a workflow file matches no test.

Usage: python3 check_test_filters.py <workflow.yml> <list.txt>

`list.txt` is what `cargo test --workspace -- --list` prints on stdout
and stderr together: cargo's `Running <source> (<binary>)` and
`Doc-tests <crate>` lines name the target each following `<path>: test`
line belongs to, and `cargo metadata` (run on the repository this script
sits in) names each target's package. A filter is a positional argument
of a `cargo test` command, before or after its `--`; like libtest, a
filter matches a test whose path contains it. It is checked against the
tests of the packages and targets its own command selects (`-p`,
`--workspace`, `--lib`, `--test`; no `-p` is the root package), so a
filter left behind by a test that moved to another crate or target is
dead too. Exit status 1 names every filter that matches nothing, and
every command that selects no test at all.
"""

import json
import os
import re
import shlex
import subprocess
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
# The target kinds a `cargo test` with no target option runs.
DEFAULT_KINDS = {"lib", "bin", "test", "doc"}
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def crate(name):
    """A package or target name as its crate and binary are spelled."""
    return name.replace("-", "_")


def workspace():
    """The root package, and (package, kind, crate name, source path) of
    every target in the workspace."""
    meta = json.loads(subprocess.run(
        ["cargo", "metadata", "--no-deps", "--offline", "--format-version", "1",
         "--manifest-path", os.path.join(REPO, "Cargo.toml")],
        check=True, capture_output=True, text=True,
    ).stdout)
    root, targets = None, []
    for package in meta["packages"]:
        name = crate(package["name"])
        if os.path.dirname(package["manifest_path"]) == meta["workspace_root"]:
            root = name
        for t in package["targets"]:
            kind = t["kind"][0] if t["kind"][0] in ("bin", "test", "bench", "example") else "lib"
            targets.append((name, kind, crate(t["name"]), t["src_path"]))
    return root, targets


def parse(command, root):
    """The packages, targets and test filters of one `cargo test` line.

    Packages are a set of crate names, or None for the whole workspace.
    Targets are (kind, name) pairs, name None for every target of a kind.
    """
    words = shlex.split(command, comments=True)[2:]
    packages, targets, found = set(), set(), []
    after_dashes, option = False, None
    for word in words:
        if word in ENDS or word.startswith((">", "2>")):
            break
        if option:
            if option in ("-p", "--package"):
                packages.add(crate(word))
            elif option == "--test":
                targets.add(("test", crate(word)))
            option = None
            continue
        if word == "--" and not after_dashes:
            after_dashes = True
            continue
        if word.startswith("-"):
            valued = LIBTEST_VALUED if after_dashes else CARGO_VALUED
            option = word if word in valued else None
            if not after_dashes and word in ("--workspace", "--all"):
                packages = None
            elif not after_dashes and word == "--lib":
                targets.add(("lib", None))
            continue
        found.append(word)
    if packages is not None and not packages:
        packages = {root}
    return packages, targets or {(kind, None) for kind in DEFAULT_KINDS}, found


def listing(path, targets):
    """(package, kind, target, test path) for every listed test."""
    tests, target = [], None
    running = re.compile(r"Running (?:unittests )?(\S+) \(\S*?(\w+)-[0-9a-f]+(?:\.exe)?\)")
    for line in open(path, encoding="utf-8"):
        line = line.rstrip()
        if m := running.search(line):
            source, binary = m.groups()
            found = [
                (package, kind, name)
                for package, kind, name, src in targets
                if name == binary and src.endswith(os.sep + source)
            ]
        elif line.lstrip().startswith("Doc-tests "):
            binary = line.split()[-1]
            found = [(p, "doc", n) for p, kind, n, _ in targets if kind == "lib" and n == binary]
        elif line.endswith((": test", ": bench")):
            tests.append((*target, line.rsplit(": ", 1)[0]))
            continue
        else:
            continue
        if len(found) != 1:
            sys.exit(f"{path}: no one workspace target runs as {line.strip()!r}")
        target = found[0]
    return tests


def main(workflow, list_path):
    root, targets = workspace()
    tests = listing(list_path, targets)
    if not tests:
        sys.exit(f"{list_path}: no tests listed")
    commands = [
        line[line.index("cargo test"):].strip()
        for line in open(workflow, encoding="utf-8")
        if "cargo test" in line and not line.lstrip().startswith("#")
    ]
    dead = 0
    for command in commands:
        packages, selects, filters = parse(command, root)
        selected = [
            name
            for package, kind, target, name in tests
            if (packages is None or package in packages)
            and ((kind, target) in selects or (kind, None) in selects)
        ]
        if not selected and "--list" not in command:
            print(f"selects no test: {command}")
            dead += 1
        for name in filters:
            if not any(name in test for test in selected):
                print(f"no test matches filter {name!r} in: {command}")
                dead += 1
    print(f"{len(commands)} cargo test commands, {len(tests)} listed tests, {dead} dead")
    sys.exit(1 if dead else 0)


if __name__ == "__main__":
    main(*sys.argv[1:])
