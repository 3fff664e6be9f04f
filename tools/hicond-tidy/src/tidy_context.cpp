#include "tidy_context.hpp"

#include <algorithm>

#include "clang/Basic/SourceManager.h"
#include "llvm/ADT/SmallString.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/Path.h"

namespace hicond_tidy {

namespace {

// StringRef::startswith was removed in newer LLVM releases; keep the tool
// buildable against any LLVM >= 14 with plain substring helpers.
bool startsWith(llvm::StringRef s, llvm::StringRef prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string normalizePath(llvm::StringRef path) {
  llvm::SmallString<256> abs(path);
  llvm::sys::fs::make_absolute(abs);
  llvm::sys::path::remove_dots(abs, /*remove_dot_dot=*/true);
  return std::string(abs.str());
}

// [begin, end) byte offsets of the buffer line containing `off`.
std::pair<std::size_t, std::size_t> lineBounds(llvm::StringRef buf,
                                               std::size_t off) {
  const std::size_t nl = buf.rfind('\n', off);
  const std::size_t begin = nl == llvm::StringRef::npos ? 0 : nl + 1;
  std::size_t end = buf.find('\n', off);
  if (end == llvm::StringRef::npos) end = buf.size();
  return {begin, end};
}

}  // namespace

TidyContext::TidyContext(TidyOptions opts) : opts_(std::move(opts)) {
  if (!opts_.repo_root.empty()) {
    opts_.repo_root = normalizePath(opts_.repo_root);
  }
}

std::string TidyContext::relativePath(const clang::SourceManager& sm,
                                      clang::SourceLocation loc) const {
  const clang::SourceLocation e = sm.getExpansionLoc(loc);
  const llvm::StringRef fname = sm.getFilename(e);
  if (fname.empty()) return {};
  if (opts_.fixture_mode) {
    if (sm.getFileID(e) != sm.getMainFileID()) return {};
    return std::string(llvm::sys::path::filename(fname));
  }
  const std::string abs = normalizePath(fname);
  const std::string prefix = opts_.repo_root + "/";
  if (!startsWith(abs, prefix)) return {};
  return abs.substr(prefix.size());
}

bool TidyContext::checkEnabledAt(const clang::SourceManager& sm,
                                 clang::SourceLocation loc,
                                 llvm::StringRef check) const {
  if (loc.isInvalid()) return false;
  const clang::SourceLocation e = sm.getExpansionLoc(loc);
  if (e.isInvalid() || sm.isInSystemHeader(e)) return false;
  if (opts_.fixture_mode) {
    return sm.getFileID(e) == sm.getMainFileID();
  }
  const std::string rel = relativePath(sm, e);
  if (rel.empty()) return false;
  const llvm::StringRef r(rel);
  if (!(startsWith(r, "src/") || startsWith(r, "examples/") ||
        startsWith(r, "bench/") || startsWith(r, "fuzz/"))) {
    return false;
  }
  // Per-check exemptions: the funnel header implements the combines that
  // owner-computes polices elsewhere, and the float-eq helpers must compare
  // floats.
  if (check == "owner-computes") {
    return r != "src/hicond/util/parallel.hpp";
  }
  if (check == "float-compare") {
    return r != "src/hicond/util/float_eq.hpp";
  }
  if (check == "ordered-iteration") {
    return startsWith(r, "src/hicond/");
  }
  if (check == "untrusted-size") {
    // The taint model's sources (snapshot Reader, NDJSON numbers) live in
    // the serve layer; scoping the check there keeps its source-order
    // approximation away from unrelated numeric kernels.
    return startsWith(r, "src/hicond/serve/");
  }
  return true;
}

bool TidyContext::suppressedAt(const clang::SourceManager& sm,
                               clang::SourceLocation loc,
                               llvm::StringRef check) const {
  const clang::SourceLocation e = sm.getExpansionLoc(loc);
  if (e.isInvalid()) return false;
  const auto dec = sm.getDecomposedLoc(e);
  bool invalid = false;
  const llvm::StringRef buf = sm.getBufferData(dec.first, &invalid);
  if (invalid || dec.second >= buf.size()) return false;

  const auto [ls, le] = lineBounds(buf, dec.second);
  const llvm::StringRef cur = buf.slice(ls, le);
  llvm::StringRef prev;
  if (ls > 0) {
    const auto [ps, pe] = lineBounds(buf, ls - 1);
    prev = buf.slice(ps, pe);
  }

  const std::string marker = "hicond-tidy: allow(" + check.str() + ")";
  if (cur.contains(marker) || prev.contains(marker)) return true;
  if (check == "float-compare" &&
      (cur.contains("float-eq: exact") || prev.contains("float-eq: exact"))) {
    return true;
  }
  return false;
}

void TidyContext::report(const clang::SourceManager& sm,
                         clang::SourceLocation loc, llvm::StringRef check,
                         llvm::StringRef message) {
  const clang::SourceLocation e = sm.getExpansionLoc(loc);
  const clang::PresumedLoc p = sm.getPresumedLoc(e);
  if (p.isInvalid()) return;
  std::string file = relativePath(sm, e);
  if (file.empty()) file = p.getFilename();
  if (!seen_.insert({file, p.getLine(), check.str()}).second) return;
  diags_.push_back({std::move(file), p.getLine(), check.str(), message.str()});
}

void TidyContext::reportIfActive(const clang::SourceManager& sm,
                                 clang::SourceLocation loc,
                                 llvm::StringRef check,
                                 llvm::StringRef message) {
  if (!checkEnabledAt(sm, loc, check)) return;
  if (suppressedAt(sm, loc, check)) return;
  report(sm, loc, check, message);
}

std::size_t TidyContext::flush(llvm::raw_ostream& os) {
  std::sort(diags_.begin(), diags_.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.check) <
                     std::tie(b.file, b.line, b.check);
            });
  for (const Diagnostic& d : diags_) {
    os << d.file << ":" << d.line << ": [" << d.check << "] " << d.message
       << "\n";
  }
  return diags_.size();
}

}  // namespace hicond_tidy
