#!/usr/bin/env python3
"""Project-specific lint: repo invariants clang-tidy cannot express.

Stdlib only, like bench_compare.py. Usage:

    lint_erlb.py [--root DIR] [paths...]    # lint the tree (or files)
    lint_erlb.py --selftest                 # verify the rules themselves

Rules (each maps to a load-bearing project contract):

  nodiscard      Every declaration returning `Status` or `Result<T>` *by
                 value* in a header must carry `[[nodiscard]]`. The
                 Status/Result classes are themselves [[nodiscard]], which
                 makes compilers warn at call sites; the per-declaration
                 attribute keeps the contract visible at the API and
                 protects against the class attribute being lost.
                 Reference returns (accessors like `const Status&
                 status()`) and fields with initializers are exempt.

  raw-mutex      No `std::mutex` / `std::lock_guard` / `std::unique_lock`
                 / `std::condition_variable` / `std::scoped_lock` outside
                 src/common/mutex.h. Everything else must use the
                 annotated erlb::Mutex wrappers so `clang -Wthread-safety`
                 can check lock discipline on every build.

  header-guard   `#ifndef`/`#define` guard must be ERLB_<PATH>_H_ derived
                 from the file path (src/ stripped for library headers).

  dcheck-side-effect
                 `ERLB_DCHECK(cond)` compiles to a no-op in NDEBUG builds,
                 so `cond` must not contain side effects (++/--/plain
                 assignment). Release and debug binaries would otherwise
                 compute different states.

  fault-site     Every `ERLB_FAULT_POINT(...)` under src/ must pass a
                 plain string literal, each site name must have exactly
                 one definition point in the tree, and the set of used
                 sites must equal kRegisteredFaultSites in
                 src/common/fault.cc (both directions: an unregistered
                 site never fires and silently weakens the fault-sweep
                 test; a registered-but-unused site makes the sweep arm
                 dead names). Direct `FaultInjector::Global().Hit("...")`
                 calls count as definition points too (used where the
                 macro's return-Status shape does not fit). On top of the
                 set equality, REQUIRED_FAULT_SITES must be present: the
                 serve daemon's accept/batch hooks are exercised by
                 tests/test_serve.cc rather than the generic fault sweep
                 (which skips serve.*), so dropping them from the
                 registry would silently lose that coverage.

Exit code 1 iff any finding. Output is one `path:line: [rule] message`
per finding, compiler-style, so editors and CI annotate it.
"""

import argparse
import os
import re
import sys

LINT_DIRS = ("src", "tests", "bench", "examples", "tools")
CPP_EXTENSIONS = (".h", ".cc", ".cpp")

# The one place raw std synchronization primitives are allowed: the
# annotated wrappers themselves.
RAW_MUTEX_ALLOWLIST = ("src/common/mutex.h",)

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b"
)

# A Status/Result-by-value declaration: optional specifiers, the return
# type (not followed by &, * or another identifier character), then the
# function name and an opening parenthesis on the same line. Fields with
# initializers fail the `name(` requirement; references are excluded by
# the lookahead after the type.
NODISCARD_DECL_RE = re.compile(
    r"^\s*"
    r"(?:(?:virtual|static|inline|constexpr|explicit|friend)\s+)*"
    r"(?:::)?(?:erlb::)?(?:Status|Result<(?:[^<>;]|<[^<>]*>)*>)"
    r"(?![&*\w<])\s+"
    r"(?P<name>~?[A-Za-z_]\w*)\s*\("
)

DCHECK_RE = re.compile(r"\bERLB_DCHECK\s*\(")

# Fault-site definition points: the macro, or a direct injector Hit with
# a literal (io_buffer.cc's write path, where the macro's return shape
# does not fit). fault.h (macro definition) and fault.cc (registry) are
# exempt from the per-file literal check.
FAULT_POINT_RE = re.compile(r"\bERLB_FAULT_POINT\s*\(")
FAULT_SITE_DEF_RE = re.compile(
    r'\bERLB_FAULT_POINT\s*\(\s*"(?P<macro>[^"]*)"\s*\)'
    r'|\bFaultInjector::Global\(\)\s*\.\s*Hit\s*\(\s*"(?P<direct>[^"]*)"\s*\)'
)
FAULT_ALLOWLIST = ("src/common/fault.h", "src/common/fault.cc")
FAULT_REGISTRY_FILE = "src/common/fault.cc"
FAULT_REGISTRY_RE = re.compile(
    r"kRegisteredFaultSites\s*\[\s*\]\s*=\s*\{(?P<body>[^}]*)\}", re.S)

# Sites that must stay in the registry no matter how the code moves.
# The serve daemon's fault hooks are covered by dedicated tests
# (tests/test_serve.cc drops a connection / fails a batch), not by the
# generic fault sweep, which skips serve.* because the daemon owns its
# own recovery; without this check a refactor could delete the hooks and
# no test would notice the lost coverage.
REQUIRED_FAULT_SITES = frozenset({"serve.accept", "serve.batch"})

# ++/-- anywhere, or a single = that is not part of ==, !=, <=, >=, =>,
# += and friends.
SIDE_EFFECT_RE = re.compile(r"\+\+|--|(?<![=!<>+\-*/%&|^])=(?![=])")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text, keep_strings=False):
    """Blanks out // and /* */ comments, preserving line structure.

    By default string literal *contents* are dropped too (no lint
    pattern should fire inside them); `keep_strings` preserves them for
    rules that inspect literals, like fault-site.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                break
            out.append("\n")
            i = j + 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n
            out.append("\n" * text.count("\n", i, j))
            i = j + 2
        elif c == '"':
            out.append('"')
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    if keep_strings:
                        out.append(text[i])
                    i += 1
                    if keep_strings and i < n:
                        out.append(text[i])
                    i += 1
                    continue
                if text[i] == "\n":
                    out.append("\n")
                elif keep_strings:
                    out.append(text[i])
                i += 1
            out.append('"')
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(relpath):
    """ERLB_<PATH>_H_ with src/ stripped for library headers."""
    path = relpath.replace(os.sep, "/")
    if path.startswith("src/"):
        path = path[len("src/"):]
    return "ERLB_" + re.sub(r"[^A-Za-z0-9]", "_", path).upper() + "_"


def check_nodiscard(relpath, lines, findings):
    if not relpath.endswith(".h"):
        return
    for i, line in enumerate(lines):
        m = NODISCARD_DECL_RE.match(line)
        if not m:
            continue
        # Attribute on the same line before the type, or at the end of one
        # of the two preceding lines (it may sit above the declaration,
        # possibly above a template<> or specifier line).
        window = "".join(lines[max(0, i - 2):i]) + line[:m.start("name")]
        if "[[nodiscard]]" in window:
            continue
        # Constructors of Status/Result themselves (e.g. `Status(StatusCode
        # code, ...)`) are not returning declarations.
        if m.group("name") in ("Status", "Result"):
            continue
        findings.append(Finding(
            relpath, i + 1, "nodiscard",
            f"declaration of '{m.group('name')}' returns Status/Result "
            "by value but is not marked [[nodiscard]]"))


def check_raw_mutex(relpath, lines, findings):
    if relpath.replace(os.sep, "/") in RAW_MUTEX_ALLOWLIST:
        return
    for i, line in enumerate(lines):
        m = RAW_MUTEX_RE.search(line)
        if m:
            findings.append(Finding(
                relpath, i + 1, "raw-mutex",
                f"use erlb::Mutex/MutexLock/CondVar (common/mutex.h) "
                f"instead of {m.group(0)} so thread-safety analysis "
                "covers it"))


def check_header_guard(relpath, lines, findings):
    if not relpath.endswith(".h"):
        return
    guard = expected_guard(relpath)
    ifndef_re = re.compile(r"^#ifndef\s+(\S+)")
    for i, line in enumerate(lines):
        m = ifndef_re.match(line)
        if not m:
            continue
        actual = m.group(1)
        if actual != guard:
            findings.append(Finding(
                relpath, i + 1, "header-guard",
                f"guard is {actual}, expected {guard}"))
        elif i + 1 >= len(lines) or not lines[i + 1].startswith(
                f"#define {guard}"):
            findings.append(Finding(
                relpath, i + 2, "header-guard",
                f"#ifndef {guard} not followed by #define {guard}"))
        return
    findings.append(Finding(relpath, 1, "header-guard",
                            f"missing include guard {guard}"))


def balanced_argument(text, start):
    """Returns text of the (...) argument starting at `start` ('(')."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return text[start + 1:]


def check_dcheck(relpath, text, findings):
    for m in DCHECK_RE.finditer(text):
        arg = balanced_argument(text, m.end() - 1)
        if SIDE_EFFECT_RE.search(arg):
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                relpath, line, "dcheck-side-effect",
                "ERLB_DCHECK condition contains a side effect "
                "(++/--/assignment); it is compiled out under NDEBUG"))


def check_fault_point_literals(relpath, text, findings):
    """Per-file half of fault-site: macro args must be string literals."""
    path = relpath.replace(os.sep, "/")
    if not path.startswith("src/") or path in FAULT_ALLOWLIST:
        return
    for m in FAULT_POINT_RE.finditer(text):
        arg = balanced_argument(text, m.end() - 1)
        if not re.fullmatch(r'\s*"[^"]*"\s*', arg):
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                relpath, line, "fault-site",
                "ERLB_FAULT_POINT argument must be a plain string "
                "literal so the lint can cross-check it against "
                "kRegisteredFaultSites"))


def collect_fault_sites(relpath, text):
    """Yields (site, line) definition points in a src/ file."""
    path = relpath.replace(os.sep, "/")
    if not path.startswith("src/") or path in FAULT_ALLOWLIST:
        return
    for m in FAULT_SITE_DEF_RE.finditer(text):
        site = m.group("macro")
        if site is None:
            site = m.group("direct")
        yield site, text.count("\n", 0, m.start()) + 1


def parse_fault_registry(root):
    """Returns {site} from kRegisteredFaultSites, or None if unparseable."""
    path = os.path.join(root, FAULT_REGISTRY_FILE)
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as f:
        text = strip_comments(f.read(), keep_strings=True)
    m = FAULT_REGISTRY_RE.search(text)
    if not m:
        return None
    return set(re.findall(r'"([^"]*)"', m.group("body")))


def check_fault_sites_tree(root, site_defs, findings):
    """Tree half of fault-site: uniqueness + registry cross-check.

    `site_defs` is a list of (site, relpath, line) collected across the
    linted files; only meaningful for whole-tree runs.
    """
    registry = parse_fault_registry(root)
    if registry is None:
        findings.append(Finding(
            FAULT_REGISTRY_FILE, 1, "fault-site",
            "cannot parse kRegisteredFaultSites[]"))
        return
    for site in sorted(REQUIRED_FAULT_SITES - registry):
        findings.append(Finding(
            FAULT_REGISTRY_FILE, 1, "fault-site",
            f'required fault site "{site}" is missing from '
            "kRegisteredFaultSites — the serve daemon's fault hooks are "
            "covered by tests/test_serve.cc, not the generic sweep, so "
            "deleting them silently loses that coverage"))
    seen = {}
    for site, relpath, line in site_defs:
        if site in seen:
            findings.append(Finding(
                relpath, line, "fault-site",
                f'duplicate fault site "{site}" (first defined at '
                f"{seen[site][0]}:{seen[site][1]}); every site must have "
                "exactly one definition point"))
        else:
            seen[site] = (relpath, line)
        if site not in registry:
            findings.append(Finding(
                relpath, line, "fault-site",
                f'fault site "{site}" is not in kRegisteredFaultSites '
                "(src/common/fault.cc) — Arm() would reject it and the "
                "fault-sweep test would never cover it"))
    for site in sorted(registry - set(seen)):
        findings.append(Finding(
            FAULT_REGISTRY_FILE, 1, "fault-site",
            f'registered fault site "{site}" has no definition point '
            "under src/ — the fault sweep arms a dead name"))


def lint_file(root, relpath, site_defs=None):
    findings = []
    with open(os.path.join(root, relpath), "r", encoding="utf-8") as f:
        raw = f.read()
    text = strip_comments(raw)
    lines = text.splitlines(keepends=True)
    check_nodiscard(relpath, lines, findings)
    check_raw_mutex(relpath, lines, findings)
    check_header_guard(relpath, lines, findings)
    check_dcheck(relpath, text, findings)
    literal_text = strip_comments(raw, keep_strings=True)
    check_fault_point_literals(relpath, literal_text, findings)
    if site_defs is not None:
        for site, line in collect_fault_sites(relpath, literal_text):
            site_defs.append((site, relpath, line))
    return findings


def collect_files(root, explicit):
    if explicit:
        for p in explicit:
            yield os.path.relpath(os.path.abspath(p), root)
        return
    for top in LINT_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def run_lint(root, explicit_paths):
    findings = []
    # The uniqueness/registry cross-check needs the whole tree; partial
    # (explicit-path) runs keep only the per-file literal check.
    site_defs = [] if not explicit_paths else None
    for relpath in collect_files(root, explicit_paths):
        findings.extend(lint_file(root, relpath, site_defs))
    if site_defs is not None:
        check_fault_sites_tree(root, site_defs, findings)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_erlb: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


# ---- selftest ---------------------------------------------------------------


def _lint_snippet(relpath, snippet):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        full = os.path.join(tmp, relpath)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(snippet)
        return lint_file(tmp, relpath)


def selftest():
    import tempfile

    failures = []

    def expect(name, relpath, snippet, rules):
        got = sorted({f.rule for f in _lint_snippet(relpath, snippet)})
        want = sorted(rules)
        if got != want:
            failures.append(f"{name}: expected rules {want}, got {got}")

    guarded = (
        "#ifndef ERLB_FOO_BAR_H_\n"
        "#define ERLB_FOO_BAR_H_\n"
        "{body}\n"
        "#endif  // ERLB_FOO_BAR_H_\n"
    )

    expect("missing nodiscard", "src/foo/bar.h",
           guarded.format(body="Status Frobnicate();"), ["nodiscard"])
    expect("missing nodiscard on Result", "src/foo/bar.h",
           guarded.format(body="Result<std::vector<int>> Load(int n);"),
           ["nodiscard"])
    expect("nodiscard present", "src/foo/bar.h",
           guarded.format(body="[[nodiscard]] Status Frobnicate();"), [])
    expect("nodiscard on preceding line", "src/foo/bar.h",
           guarded.format(body="[[nodiscard]]\nStatus Frobnicate();"), [])
    expect("status field with initializer", "src/foo/bar.h",
           guarded.format(body="struct R { Status status = Status::OK(); };"),
           [])
    expect("status reference accessor", "src/foo/bar.h",
           guarded.format(body="const Status& status() const;"), [])
    expect("status declaration in comment", "src/foo/bar.h",
           guarded.format(body="// Status Frobnicate();"), [])

    expect("raw std::mutex", "src/foo/bar.h",
           guarded.format(body="std::mutex mu_;"),
           ["raw-mutex"])
    expect("raw lock_guard in .cc", "src/foo/bar.cc",
           "void F() { std::lock_guard<std::mutex> l(mu); }\n",
           ["raw-mutex", "raw-mutex"][:1])
    # Through the tree walk a full run does, so the file is linted only
    # if its extension is collected: the example CLIs are .cpp files.
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "examples"))
        with open(os.path.join(tmp, "examples", "demo.cpp"), "w",
                  encoding="utf-8") as f:
            f.write("std::mutex mu;\n")
        got = [f.rule for relpath in collect_files(tmp, [])
               for f in lint_file(tmp, relpath)]
    if got != ["raw-mutex"]:
        failures.append(
            f"raw std::mutex in examples/*.cpp: expected ['raw-mutex'], "
            f"got {got}")
    expect("mutex wrapper header allowed", "src/common/mutex.h",
           "#ifndef ERLB_COMMON_MUTEX_H_\n#define ERLB_COMMON_MUTEX_H_\n"
           "std::mutex mu_;\n#endif\n",
           [])

    expect("wrong guard", "src/foo/bar.h",
           "#ifndef WRONG_GUARD_H_\n#define WRONG_GUARD_H_\n#endif\n",
           ["header-guard"])
    expect("missing guard", "src/foo/bar.h", "int x;\n", ["header-guard"])
    expect("tests keep dir prefix", "tests/helper.h",
           "#ifndef ERLB_TESTS_HELPER_H_\n#define ERLB_TESTS_HELPER_H_\n"
           "#endif\n",
           [])

    expect("dcheck increment", "src/foo/bar.cc",
           "void F() { ERLB_DCHECK(++i > 0); }\n", ["dcheck-side-effect"])
    expect("dcheck assignment", "src/foo/bar.cc",
           "void F() { ERLB_DCHECK(x = 3); }\n", ["dcheck-side-effect"])
    expect("dcheck comparisons clean", "src/foo/bar.cc",
           "void F() { ERLB_DCHECK(a <= b && c == d && e != f); }\n", [])
    expect("dcheck multiline", "src/foo/bar.cc",
           "void F() {\n  ERLB_DCHECK(a ==\n              b--);\n}\n",
           ["dcheck-side-effect"])

    expect("fault point non-literal arg", "src/foo/bar.cc",
           'void F() { ERLB_FAULT_POINT(site_name); }\n', ["fault-site"])
    expect("fault point literal arg clean", "src/foo/bar.cc",
           'void F() { ERLB_FAULT_POINT("foo.bar"); }\n', [])
    expect("fault point in comment ignored", "src/foo/bar.cc",
           '// ERLB_FAULT_POINT(whatever)\n', [])
    expect("fault point outside src ignored", "tests/bar.cc",
           'void F() { ERLB_FAULT_POINT(site_name); }\n', [])

    def expect_tree(name, files, rules):
        with tempfile.TemporaryDirectory() as tmp:
            for relpath, content in files.items():
                full = os.path.join(tmp, relpath)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as f:
                    f.write(content)
            site_defs = []
            findings = []
            for relpath in files:
                if relpath.endswith(CPP_EXTENSIONS):
                    with open(os.path.join(tmp, relpath),
                              encoding="utf-8") as f:
                        text = strip_comments(f.read(), keep_strings=True)
                    for site, line in collect_fault_sites(relpath, text):
                        site_defs.append((site, relpath, line))
            check_fault_sites_tree(tmp, site_defs, findings)
        got = sorted(f.rule for f in findings)
        want = sorted(rules)
        if got != want:
            failures.append(f"{name}: expected rules {want}, got {got}")

    registry_cc = (
        "namespace {\n"
        "constexpr std::string_view kRegisteredFaultSites[] = {\n"
        '    "a.one",\n'
        '    "b.two",\n'
        '    "serve.accept",\n'
        '    "serve.batch",\n'
        "};\n"
        "}\n"
    )
    # Definition points for the always-required serve sites, so fixtures
    # exercise their *intended* rule and nothing else.
    serve_cc = ('FaultInjector::Global().Hit("serve.accept");\n'
                'FaultInjector::Global().Hit("serve.batch");\n')
    expect_tree("fault sites all registered and unique", {
        "src/common/fault.cc": registry_cc,
        "src/x/a.cc": 'ERLB_FAULT_POINT("a.one");\n',
        "src/x/b.cc": 'FaultInjector::Global().Hit("b.two");\n',
        "src/serve/s.cc": serve_cc,
    }, [])
    expect_tree("duplicate fault site", {
        "src/common/fault.cc": registry_cc,
        "src/x/a.cc": 'ERLB_FAULT_POINT("a.one");\n'
                      'ERLB_FAULT_POINT("a.one");\n',
        "src/x/b.cc": 'ERLB_FAULT_POINT("b.two");\n',
        "src/serve/s.cc": serve_cc,
    }, ["fault-site"])
    expect_tree("unregistered fault site", {
        "src/common/fault.cc": registry_cc,
        "src/x/a.cc": 'ERLB_FAULT_POINT("a.one");\n'
                      'ERLB_FAULT_POINT("c.three");\n',
        "src/x/b.cc": 'ERLB_FAULT_POINT("b.two");\n',
        "src/serve/s.cc": serve_cc,
    }, ["fault-site"])
    expect_tree("registered but unused fault site", {
        "src/common/fault.cc": registry_cc,
        "src/x/a.cc": 'ERLB_FAULT_POINT("a.one");\n'
                      'ERLB_FAULT_POINT("b.two");\n',
        "src/serve/s.cc": serve_cc[:serve_cc.find("\n") + 1],
    }, ["fault-site"])
    expect_tree("missing registry", {
        "src/x/a.cc": 'ERLB_FAULT_POINT("a.one");\n',
    }, ["fault-site"])
    expect_tree("required serve site dropped from registry", {
        "src/common/fault.cc": (
            "namespace {\n"
            "constexpr std::string_view kRegisteredFaultSites[] = {\n"
            '    "a.one",\n'
            '    "serve.accept",\n'
            "};\n"
            "}\n"),
        "src/x/a.cc": 'ERLB_FAULT_POINT("a.one");\n',
        "src/serve/s.cc": serve_cc[:serve_cc.find("\n") + 1],
    }, ["fault-site"])

    if failures:
        for f in failures:
            print(f"selftest FAIL: {f}", file=sys.stderr)
        return 1
    print("lint_erlb selftest: all cases pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in rule tests and exit")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the script's parent dir)")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: whole tree)")
    args = parser.parse_args()

    if args.selftest:
        return selftest()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return run_lint(root, args.paths)


if __name__ == "__main__":
    sys.exit(main())
