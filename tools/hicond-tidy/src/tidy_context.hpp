// Shared state for one hicond-tidy run: options, path policy, suppression
// lookup, and the deduplicated diagnostics sink. One TidyContext outlives
// all translation units of a run so identical findings from headers seen
// by many TUs collapse to one line.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "clang/Basic/SourceLocation.h"
#include "llvm/ADT/StringRef.h"
#include "llvm/Support/raw_ostream.h"

namespace clang {
class SourceManager;
}

namespace hicond_tidy {

struct TidyOptions {
  /// Fixture mode (test/run_fixture_tests.py): every check fires on the
  /// main file regardless of the repository path policy.
  bool fixture_mode = false;
  /// Absolute repository root; scan scope and per-check path exemptions
  /// are expressed relative to it.
  std::string repo_root;
};

struct Diagnostic {
  std::string file;
  unsigned line = 0;
  std::string check;
  std::string message;
};

class TidyContext {
 public:
  explicit TidyContext(TidyOptions opts);

  [[nodiscard]] const TidyOptions& options() const { return opts_; }

  /// Whether `check` applies at `loc`: false for invalid locations, system
  /// headers, files outside the scan scope (src/, examples/, bench/,
  /// fuzz/), and the per-check exemptions from docs/STATIC_ANALYSIS.md
  /// (e.g. util/float_eq.hpp may compare floats). In fixture mode only "is
  /// this the main file" counts.
  [[nodiscard]] bool checkEnabledAt(const clang::SourceManager& sm,
                                    clang::SourceLocation loc,
                                    llvm::StringRef check) const;

  /// True when the physical line of `loc` or the line directly above
  /// carries `hicond-tidy: allow(<check>)`; float-compare additionally
  /// honors the project's existing `float-eq: exact` marker.
  [[nodiscard]] bool suppressedAt(const clang::SourceManager& sm,
                                  clang::SourceLocation loc,
                                  llvm::StringRef check) const;

  /// Record one diagnostic (deduplicated on file:line:check). Callers are
  /// expected to have consulted checkEnabledAt/suppressedAt already; the
  /// helper reportIfActive below does all three.
  void report(const clang::SourceManager& sm, clang::SourceLocation loc,
              llvm::StringRef check, llvm::StringRef message);

  /// checkEnabledAt + suppressedAt + report in one call.
  void reportIfActive(const clang::SourceManager& sm,
                      clang::SourceLocation loc, llvm::StringRef check,
                      llvm::StringRef message);

  /// Print all diagnostics sorted by (file, line, check); returns count.
  std::size_t flush(llvm::raw_ostream& os);

  /// Diagnostics in flush() order (sorted only after flush() has run).
  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }

  /// Repo-relative path of `loc`'s expansion file, or "" when the file is
  /// not under the repository root (always "" in fixture mode for
  /// non-main files; the main fixture file maps to its basename).
  [[nodiscard]] std::string relativePath(const clang::SourceManager& sm,
                                         clang::SourceLocation loc) const;

 private:
  TidyOptions opts_;
  std::set<std::tuple<std::string, unsigned, std::string>> seen_;
  std::vector<Diagnostic> diags_;
};

}  // namespace hicond_tidy
