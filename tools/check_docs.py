#!/usr/bin/env python3
"""Documentation consistency gate (run from anywhere; CI runs it on push).

Three checks over README.md, DESIGN.md, CHANGES.md, ROADMAP.md, and
docs/*.md:

 1. Every relative markdown link resolves: the target file exists, and
    when the link carries a #fragment, the target contains a heading
    whose GitHub-style anchor matches. External links (http/https/
    mailto) and links that escape the repository (e.g. the CI badge's
    ../../actions/... URL, which is resolved by the GitHub website, not
    the working tree) are skipped.

 2. Every metric name registered in src/obs/metrics.cc,
    src/server/server_metrics.cc, or src/wal/wal_metrics.cc appears in
    docs/operations.md, so the operator-facing catalog cannot silently
    drift from the code.

 3. Every source path cited in README.md, DESIGN.md, and docs/*.md
    exists: `src/...` paths (globs and {a,b} alternatives expanded),
    and `.h`/`.cc` paths under a src/ directory written without the
    prefix (engine/merge_join.cc). CHANGES.md and ROADMAP.md are
    history and plans, so they may cite paths that are gone or not yet
    written.

Exit code 0 = clean, 1 = findings (each printed as file:line message).
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
METRIC_RE = re.compile(r'"(fuzzydb_[a-z_]+)"')
FENCE_RE = re.compile(r"^(```|~~~)")


def doc_files():
    files = []
    for name in ("README.md", "DESIGN.md", "CHANGES.md", "ROADMAP.md"):
        path = os.path.join(REPO, name)
        if os.path.exists(path):
            files.append(path)
    docs_dir = os.path.join(REPO, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                files.append(os.path.join(docs_dir, name))
    return files


def strip_fenced(lines):
    """Yield (lineno, line) outside fenced code blocks."""
    in_fence = False
    for i, line in enumerate(lines, start=1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield i, line


def github_anchor(heading):
    """GitHub's heading-to-anchor slug: lowercase, drop punctuation
    (keeping alphanumerics, underscores, hyphens, spaces), then turn
    spaces into hyphens."""
    text = re.sub(r"`", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path, cache={}):
    if path not in cache:
        anchors = set()
        counts = {}
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for _, line in strip_fenced(lines):
            m = HEADING_RE.match(line)
            if not m:
                continue
            slug = github_anchor(m.group(2))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
        cache[path] = anchors
    return cache[path]


def check_links(path, findings):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for lineno, line in strip_fenced(lines):
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = target.partition("#")
            if target:
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target))
            else:
                resolved = path  # same-file #fragment
            rel = os.path.relpath(resolved, REPO)
            if rel.startswith(".."):
                continue  # escapes the repo: a website URL, not a file
            if not os.path.exists(resolved):
                findings.append(
                    f"{os.path.relpath(path, REPO)}:{lineno}: "
                    f"broken link target '{target}'")
                continue
            if fragment and resolved.endswith(".md"):
                if fragment not in anchors_of(resolved):
                    findings.append(
                        f"{os.path.relpath(path, REPO)}:{lineno}: "
                        f"no heading for anchor '#{fragment}' in {rel}")


METRIC_SOURCES = (
    os.path.join("src", "obs", "metrics.cc"),
    os.path.join("src", "server", "server_metrics.cc"),
    os.path.join("src", "wal", "wal_metrics.cc"),
)


def source_path_re():
    src = os.path.join(REPO, "src")
    dirs = sorted(d for d in os.listdir(src)
                  if os.path.isdir(os.path.join(src, d)))
    return re.compile(
        r"(?<![\w./-])(src/[\w./*-]*(?:\{[\w,]+\}[\w.]*)?"
        r"|(?:%s)/[\w./*-]*\.(?:h|cc)\b)" % "|".join(dirs))


def expand_alternatives(path):
    m = re.search(r"\{([\w,]+)\}", path)
    if not m:
        return [path]
    return [path[:m.start()] + alt + path[m.end():]
            for alt in m.group(1).split(",")]


def check_source_paths(path, pattern, findings):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for lineno, line in strip_fenced(lines):
        for m in pattern.finditer(line):
            cited = m.group(1).rstrip(".")
            if not cited.startswith("src/"):
                cited = "src/" + cited
            for candidate in expand_alternatives(cited):
                if not glob.glob(os.path.join(REPO, candidate)):
                    findings.append(
                        f"{os.path.relpath(path, REPO)}:{lineno}: "
                        f"cited source path '{m.group(1)}' does not exist")


def check_metrics_coverage(findings):
    operations = os.path.join(REPO, "docs", "operations.md")
    sources = [s for s in METRIC_SOURCES
               if os.path.exists(os.path.join(REPO, s))]
    if not sources or not os.path.exists(operations):
        findings.append("metrics coverage: missing metric sources or "
                        "docs/operations.md")
        return
    with open(operations, encoding="utf-8") as f:
        catalog = f.read()
    for source in sources:
        with open(os.path.join(REPO, source), encoding="utf-8") as f:
            registered = sorted(set(METRIC_RE.findall(f.read())))
        for name in registered:
            if name not in catalog:
                findings.append(
                    f"docs/operations.md: registered metric '{name}' "
                    f"({source}) is missing from the catalog")


def main():
    findings = []
    pattern = source_path_re()
    for path in doc_files():
        check_links(path, findings)
        if os.path.basename(path) not in ("CHANGES.md", "ROADMAP.md"):
            check_source_paths(path, pattern, findings)
    check_metrics_coverage(findings)
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_docs: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_docs: all links resolve, every cited source path exists, "
          "and the metrics catalog is complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
