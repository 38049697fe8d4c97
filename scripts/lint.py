#!/usr/bin/env python3
"""Repo lint: mechanical invariants clang-tidy cannot express.

Rules (each line reports as ``path:line: [rule] message``):

  raw-assert          src/ must use ive_assert (aborts with context and
                      survives NDEBUG review) — never raw assert(). The
                      contracts layer (ive_contract) and static_assert
                      are of course fine.
  hot-path-alloc      The workspace-lease hot path (kernel backends and
                      the kernels header) must not allocate: every
                      buffer comes from a PolyWorkspace lease. Flags
                      operator new, malloc/calloc/realloc, and the
                      allocating std:: container verbs.
  unchecked-serialize Wire parsing (common/serialize.cc, pir/wire.cc)
                      must funnel raw-byte access through ByteReader /
                      ByteWriter, whose need()/resize discipline makes
                      over-reads impossible. Flags memcpy/memmove and
                      reinterpret_cast in those files.
  include-guard       Every header under src/ carries a classic
                      ``#ifndef IVE_..._HH`` guard (the repo does not
                      use #pragma once).
  using-namespace-std ``using namespace std`` is banned everywhere.
  raw-chrono          src/ must time work through obs::nowNs() /
                      obs::StageSpan so every measurement lands in the
                      telemetry registry; raw steady_clock /
                      system_clock / high_resolution_clock ::now()
                      reads are flagged outside src/obs/ (the sanctioned
                      clock wrapper). Benches and tests are exempt.
  catch-all           ``catch (...)`` in src/ erases the typed error
                      taxonomy (common/error.hh) and can swallow logic
                      errors that should abort loudly. Each site must
                      justify itself with an allow() — legitimate uses
                      are promise/exception_ptr boundaries that re-throw
                      or re-deliver the exception intact. Benches and
                      tests are exempt.
  raw-socket          Socket I/O (send/recv family, ::read/::write on
                      fds) is confined to src/net/, where FrameCodec
                      framing, read/write deadlines, backpressure and
                      the net.* failpoints apply. A raw send() elsewhere in
                      src/ would bypass all four. Benches and tests are
                      exempt (they drive PirTcpClient, which lives in
                      src/net/).
  serving-layering    The serving modules (src/pir, src/shard, src/net,
                      src/obs) must not include the accelerator
                      simulator, the analytic models or the system
                      studies (sim/, model/, system/). Every header is
                      reachable from every module through the shared
                      include root, so without this rule a stray
                      include would quietly pull those libraries back
                      into the serving link.
  serving-fatal       The serving modules (the same four) must not
                      call fatal(), which exits the process. Serving
                      code reports a bad configuration by throwing
                      (PirParams::validate throws
                      std::invalid_argument), so its caller can refuse
                      it and keep serving.

Escape hatch: a finding is suppressed when the flagged line, or the
line directly above it, carries

    // lint: allow(<rule>) -- <justification>

The justification is mandatory; an allow() without one is itself an
error, so every suppression documents *why* the invariant holds at
that site.

Usage:
  scripts/lint.py [--root DIR]   lint the repo (default: repo root)
  scripts/lint.py --self-test    run the linter's own test battery
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- rule tables -----------------------------------------------------

HOT_PATH_FILES = {
    "src/poly/kernels.hh",
    "src/poly/simd/kernels_scalar.cc",
    "src/poly/simd/kernels_avx2.cc",
    "src/poly/simd/kernels_avx512.cc",
    "src/poly/simd/kernels_avx512ifma.cc",
}

SERIALIZE_FILES = {
    "src/common/serialize.cc",
    "src/common/serialize.hh",
    "src/pir/wire.cc",
}

RAW_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
ALLOC_RE = re.compile(
    r"(?<![A-Za-z0-9_])(?:new\s|new\()"
    r"|(?<![A-Za-z0-9_])(?:malloc|calloc|realloc)\s*\("
    r"|\.\s*(?:resize|reserve|push_back|emplace_back)\s*\("
    r"|(?<![A-Za-z0-9_])(?:make_unique|make_shared)\s*<"
)

SERIALIZE_RE = re.compile(
    r"(?<![A-Za-z0-9_])(?:memcpy|memmove)\s*\("
    r"|(?<![A-Za-z0-9_])reinterpret_cast\s*<"
)
USING_STD_RE = re.compile(r"using\s+namespace\s+std\b")
CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
RAW_CHRONO_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)"
    r"\s*::\s*now\s*\("
)
RAW_SOCKET_RE = re.compile(
    r"(?<![A-Za-z0-9_.>])(?:::\s*)?"
    r"(?:send|recv|sendto|recvfrom|sendmsg|recvmsg)\s*\("
    r"|(?<![A-Za-z0-9_:])::\s*(?:read|write)\s*\("
)
SERVING_MODULES = ("src/pir/", "src/shard/", "src/net/", "src/obs/")
INCLUDE_RE = re.compile(r"^\s*#\s*include\b")
SERVING_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*[<"](?:sim|system|model)/')
SERVING_FATAL_RE = re.compile(r"(?<![A-Za-z0-9_])fatal\s*\(")
GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(IVE_\w+_HH)\s*$", re.M)
GUARD_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(IVE_\w+_HH)\s*$", re.M)

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)(?:\s*--\s*(\S.*))?")

ALL_RULES = (
    "raw-assert",
    "hot-path-alloc",
    "unchecked-serialize",
    "include-guard",
    "using-namespace-std",
    "raw-chrono",
    "catch-all",
    "raw-socket",
    "serving-layering",
    "serving-fatal",
)


def strip_code(text: str) -> list[str]:
    """Blank out comments and string/char literals, preserving line
    structure, so rules never fire on prose or log messages. The allow()
    hatch is parsed from the *raw* lines, which keep their comments."""
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        if state is None:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in ('"', "'"):
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a literal
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated (e.g. apostrophe in prose)
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out).split("\n")


class Findings:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def report(self, path: str, line: int, rule: str, msg: str) -> None:
        self.errors.append(f"{path}:{line}: [{rule}] {msg}")


def allows_on(raw_lines: list[str], idx: int) -> dict[str, bool]:
    """Rules allow()ed for raw_lines[idx] (same line or line above).
    Maps rule -> has_justification."""
    found: dict[str, bool] = {}
    for j in (idx - 1, idx):
        if 0 <= j < len(raw_lines):
            for m in ALLOW_RE.finditer(raw_lines[j]):
                found[m.group(1)] = bool(m.group(2))
    return found


def check_line_rule(
    f: Findings,
    rel: str,
    raw_lines: list[str],
    code_lines: list[str],
    idx: int,
    rule: str,
    pattern: re.Pattern[str],
    msg: str,
) -> None:
    if not pattern.search(code_lines[idx]):
        return
    allows = allows_on(raw_lines, idx)
    if rule in allows:
        if not allows[rule]:
            f.report(rel, idx + 1, rule,
                     "allow() without a justification ('-- why')")
        return
    f.report(rel, idx + 1, rule, msg)


def lint_file(f: Findings, root: Path, path: Path) -> None:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.split("\n")
    code_lines = strip_code(text)

    in_src = rel.startswith("src/")
    for idx in range(len(code_lines)):
        if in_src:
            check_line_rule(
                f, rel, raw_lines, code_lines, idx, "raw-assert",
                RAW_ASSERT_RE,
                "raw assert(); use ive_assert / ive_contract")
            check_line_rule(
                f, rel, raw_lines, code_lines, idx, "catch-all",
                CATCH_ALL_RE,
                "bare catch (...) erases the typed error taxonomy; "
                "catch ive::Error (or a subclass), or justify the "
                "boundary with an allow()")
        if in_src and not rel.startswith("src/obs/"):
            check_line_rule(
                f, rel, raw_lines, code_lines, idx, "raw-chrono",
                RAW_CHRONO_RE,
                "raw clock read; time through obs::nowNs() / "
                "obs::StageSpan so the sample lands in telemetry")
        if in_src and not rel.startswith("src/net/"):
            check_line_rule(
                f, rel, raw_lines, code_lines, idx, "raw-socket",
                RAW_SOCKET_RE,
                "raw socket I/O outside src/net/; route bytes "
                "through PirTcpServer/PirTcpClient so framing, "
                "deadlines, backpressure and the net.* failpoints "
                "apply")
        # The include path is a string literal, which strip_code
        # blanks: match it on the raw line once the code line shows a
        # live #include (not one inside a comment).
        if rel.startswith(SERVING_MODULES) and \
                INCLUDE_RE.match(code_lines[idx]):
            check_line_rule(
                f, rel, raw_lines, raw_lines, idx, "serving-layering",
                SERVING_INCLUDE_RE,
                "serving code includes sim/, model/ or system/; the "
                "serving libraries must not link the simulator stack")
        if rel.startswith(SERVING_MODULES):
            check_line_rule(
                f, rel, raw_lines, code_lines, idx, "serving-fatal",
                SERVING_FATAL_RE,
                "fatal() exits the serving process; throw a typed "
                "error instead")
        if rel in HOT_PATH_FILES:
            check_line_rule(
                f, rel, raw_lines, code_lines, idx, "hot-path-alloc",
                ALLOC_RE,
                "heap allocation in the workspace-lease hot path")
        if rel in SERIALIZE_FILES:
            check_line_rule(
                f, rel, raw_lines, code_lines, idx, "unchecked-serialize",
                SERIALIZE_RE,
                "raw byte access outside the ByteReader/ByteWriter "
                "bounds discipline")
        check_line_rule(
            f, rel, raw_lines, code_lines, idx, "using-namespace-std",
            USING_STD_RE, "'using namespace std' is banned")

    if in_src and rel.endswith(".hh"):
        guards = GUARD_IFNDEF_RE.findall(text)
        defines = set(GUARD_DEFINE_RE.findall(text))
        if not any(g in defines for g in guards):
            f.report(rel, 1, "include-guard",
                     "missing '#ifndef IVE_..._HH' include guard")

    # Stale or malformed allow() comments are errors too: a hatch that
    # names an unknown rule silently suppresses nothing.
    for idx, raw in enumerate(raw_lines):
        for m in ALLOW_RE.finditer(raw):
            if m.group(1) not in ALL_RULES:
                f.report(rel, idx + 1, "lint",
                         f"allow() names unknown rule '{m.group(1)}'")


def lint_tree(root: Path) -> Findings:
    f = Findings()
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cc", ".hh"):
                lint_file(f, root, path)
    return f


# --- self-test -------------------------------------------------------

def self_test() -> int:
    import tempfile

    cases = [
        # (filename, content, expected rule or None)
        ("src/x.cc", "void f() { assert(a); }\n", "raw-assert"),
        ("src/x.cc", "void f() { ive_assert(a); }\n", None),
        ("src/x.cc", "void f() { static_assert(a); }\n", None),
        ("src/x.cc", "// an assert( in prose\n", None),
        ("src/x.cc", 'auto s = "assert(";\n', None),
        ("src/x.cc",
         "// lint: allow(raw-assert) -- interop with C harness\n"
         "assert(a);\n", None),
        ("src/x.cc",
         "// lint: allow(raw-assert)\nassert(a);\n", "raw-assert"),
        ("src/x.cc",
         "// lint: allow(no-such-rule) -- whatever\n", "lint"),
        ("src/poly/simd/kernels_scalar.cc",
         "void f() { v.resize(8); }\n", "hot-path-alloc"),
        ("src/poly/simd/kernels_scalar.cc",
         "u64 *p = ws.lease();\n", None),
        ("src/poly/kernels.hh",
         "#ifndef IVE_POLY_KERNELS_HH\n#define IVE_POLY_KERNELS_HH\n"
         "auto p = std::make_unique<u64[]>(n);\n#endif\n",
         "hot-path-alloc"),
        ("src/common/serialize.cc",
         "std::memcpy(dst, src, n);\n", "unchecked-serialize"),
        ("src/common/serialize.cc",
         "// lint: allow(unchecked-serialize) -- need() precedes\n"
         "std::memcpy(dst, src, n);\n", None),
        ("src/pir/wire.cc",
         "auto *p = reinterpret_cast<u8 *>(x);\n",
         "unchecked-serialize"),
        ("src/other.cc", "std::memcpy(dst, src, n);\n", None),
        ("src/x.hh", "#ifndef IVE_X_HH\n#define IVE_X_HH\n#endif\n",
         None),
        ("src/x.hh", "#pragma once\n", "include-guard"),
        ("src/x.hh",
         "#ifndef IVE_X_HH\n#define IVE_OTHER_HH\n#endif\n",
         "include-guard"),
        ("tests/t.cc", "using namespace std;\n", "using-namespace-std"),
        ("tests/t.cc", "using std::vector;\n", None),
        # tests/ may assert and allocate freely.
        ("tests/t.cc", "assert(a); v.resize(8);\n", None),
        ("src/x.cc",
         "auto t = std::chrono::steady_clock::now();\n", "raw-chrono"),
        ("src/x.cc",
         "auto t = high_resolution_clock::now();\n", "raw-chrono"),
        ("src/x.cc", "u64 t = obs::nowNs();\n", None),
        # src/obs/ is the sanctioned clock wrapper; benches and tests
        # time wall clocks freely.
        ("src/obs/metrics.cc",
         "auto t = std::chrono::steady_clock::now();\n", None),
        ("bench/b.cc",
         "auto t = std::chrono::steady_clock::now();\n", None),
        ("tests/t.cc",
         "auto t = std::chrono::system_clock::now();\n", None),
        ("src/x.cc",
         "// lint: allow(raw-chrono) -- deadline arithmetic needs a "
         "time_point\n"
         "auto t = std::chrono::steady_clock::now();\n", None),
        # An alias read (Clock::now()) is out of the rule's reach by
        # design; only spelled-out clock types are flagged.
        ("src/x.cc", "auto t = Clock::now();\n", None),
        ("src/x.cc", "try { f(); } catch (...) { g(); }\n", "catch-all"),
        ("src/x.cc",
         "try { f(); } catch (const Error &e) { g(); }\n", None),
        ("src/x.cc",
         "// lint: allow(catch-all) -- promise boundary, re-delivered\n"
         "} catch (...) {\n", None),
        ("src/x.cc",
         "} catch (...) { // lint: allow(catch-all)\n", "catch-all"),
        ("src/x.cc", "// a catch (...) in prose\n", None),
        # Benches and tests catch whatever they like.
        ("tests/t.cc", "try { f(); } catch (...) {}\n", None),
        ("bench/b.cc", "try { f(); } catch (...) {}\n", None),
        # Socket I/O is confined to src/net/.
        ("src/x.cc", "ssize_t n = ::send(fd, p, len, 0);\n",
         "raw-socket"),
        ("src/x.cc", "ssize_t n = recv(fd, p, len, 0);\n",
         "raw-socket"),
        ("src/x.cc", "n = ::read(fd, buf, len);\n", "raw-socket"),
        ("src/x.cc", "n = ::write(fd, buf, len);\n", "raw-socket"),
        ("src/net/server.cc", "ssize_t n = ::recv(fd, p, len, 0);\n",
         None),
        # Method calls and namespaced helpers are not socket I/O.
        ("src/x.cc", "queue.send(msg);\n", None),
        ("src/x.cc", "reader.read(buf);\n", None),
        ("src/x.cc", "io::write(sink, bytes);\n", None),
        ("tests/t.cc", "::send(fd, p, len, 0);\n", None),
        # Serving modules stay off the simulator stack.
        ("src/shard/x.cc", '#include "system/batch_scheduler.hh"\n',
         "serving-layering"),
        ("src/net/x.cc", "#include <sim/config.hh>\n",
         "serving-layering"),
        ("src/pir/x.cc", '#  include "model/cost.hh"\n',
         "serving-layering"),
        ("src/system/x.cc", '#include "sim/config.hh"\n', None),
        ("src/obs/x.cc", '#include "common/types.hh"\n', None),
        ("src/pir/x.cc", '// #include "sim/config.hh" once did\n', None),
        ("tests/t.cc", '#include "system/batch_scheduler.hh"\n', None),
        # Serving code throws; only the simulator may exit.
        ("src/pir/x.cc", 'fatal("bad params");\n', "serving-fatal"),
        ("src/net/x.cc",
         "// lint: allow(serving-fatal) -- startup-only config error\n"
         'fatal("bad port");\n', None),
        ("src/sim/x.cc", 'fatal("bad params");\n', None),
        ("src/shard/x.cc", "// fatal() would exit here\n", None),
    ]

    failures = 0
    for i, (name, content, expected) in enumerate(cases):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
            f = lint_tree(root)
            rules = {e.split("[")[1].split("]")[0] for e in f.errors}
            if expected is None:
                if f.errors:
                    failures += 1
                    print(f"self-test case {i} ({name!r}): expected "
                          f"clean, got {f.errors}")
            elif expected not in rules:
                failures += 1
                print(f"self-test case {i} ({name!r}): expected "
                      f"[{expected}], got {f.errors or 'clean'}")
    if failures:
        print(f"lint self-test: {failures} case(s) FAILED")
        return 1
    print(f"lint self-test: all {len(cases)} cases passed")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    f = lint_tree(args.root)
    for e in f.errors:
        print(e)
    if f.errors:
        print(f"lint: {len(f.errors)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
