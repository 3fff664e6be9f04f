#include "tidy_checks.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <utility>

#include "clang/AST/ASTContext.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/DeclTemplate.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Lex/MacroInfo.h"
#include "clang/Lex/PPCallbacks.h"
#include "clang/Lex/Preprocessor.h"
#include "llvm/ADT/DenseMap.h"
#include "llvm/ADT/DenseSet.h"

#include "tidy_context.hpp"

namespace hicond_tidy {

namespace {

using clang::dyn_cast;
using clang::isa;

std::string lowered(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Does a statement subtree contain anything with side effects? Expr
/// subtrees are answered by clang's own HasSideEffects; DeclStmt inits are
/// checked explicitly because decls are not child statements.
bool stmtHasSideEffects(const clang::Stmt* s, const clang::ASTContext& ast) {
  if (s == nullptr) return false;
  if (const auto* ds = dyn_cast<clang::DeclStmt>(s)) {
    for (const clang::Decl* d : ds->decls()) {
      if (const auto* vd = dyn_cast<clang::VarDecl>(d)) {
        const clang::Expr* init = vd->getInit();
        if (init != nullptr && init->HasSideEffects(ast)) return true;
      }
    }
    return false;
  }
  if (const auto* e = dyn_cast<clang::Expr>(s)) {
    return e->HasSideEffects(ast);
  }
  for (const clang::Stmt* child : s->children()) {
    if (stmtHasSideEffects(child, ast)) return true;
  }
  return false;
}

/// Collects every VarDecl declared inside a statement subtree (loop
/// variables, scratch buffers, nested-lambda parameters, ...). Used to
/// decide which names are iteration-private inside a funnel lambda.
class LocalDeclCollector : public clang::RecursiveASTVisitor<LocalDeclCollector> {
 public:
  bool VisitVarDecl(clang::VarDecl* v) {
    locals_.insert(v->getCanonicalDecl());
    return true;
  }
  void add(const clang::VarDecl* v) { locals_.insert(v->getCanonicalDecl()); }
  [[nodiscard]] bool contains(const clang::VarDecl* v) const {
    return locals_.count(v->getCanonicalDecl()) != 0;
  }

 private:
  llvm::DenseSet<const clang::VarDecl*> locals_;
};

/// True when `e` (an index expression) references any iteration-private
/// variable or omp_get_thread_num() -- i.e. the write target depends on
/// which iteration/thread executes it, which is what owner-computes needs.
class IndexDependsScan : public clang::RecursiveASTVisitor<IndexDependsScan> {
 public:
  explicit IndexDependsScan(const LocalDeclCollector& locals)
      : locals_(locals) {}

  bool VisitDeclRefExpr(clang::DeclRefExpr* dre) {
    if (const auto* vd = dyn_cast<clang::VarDecl>(dre->getDecl())) {
      if (locals_.contains(vd)) depends_ = true;
    }
    return true;
  }
  bool VisitCallExpr(clang::CallExpr* c) {
    const clang::FunctionDecl* fd = c->getDirectCallee();
    if (fd != nullptr && fd->getIdentifier() != nullptr &&
        fd->getName() == "omp_get_thread_num") {
      depends_ = true;
    }
    return true;
  }
  [[nodiscard]] bool depends() const { return depends_; }

 private:
  const LocalDeclCollector& locals_;
  bool depends_ = false;
};

/// Scans one funnel-lambda body for writes that violate owner-computes:
/// subscript stores into captured containers whose index does not depend
/// on the iteration variable, mutating container calls on captured
/// containers, and read-modify-write updates of captured scalars.
class OwnerComputesScan : public clang::RecursiveASTVisitor<OwnerComputesScan> {
 public:
  OwnerComputesScan(TidyContext& ctx, const clang::SourceManager& sm,
                    const LocalDeclCollector& locals)
      : ctx_(ctx), sm_(sm), locals_(locals) {}

  bool VisitBinaryOperator(clang::BinaryOperator* b) {
    if (b->isAssignmentOp()) {
      checkWrite(b->getLHS(), b->isCompoundAssignmentOp());
    }
    return true;
  }

  bool VisitUnaryOperator(clang::UnaryOperator* u) {
    if (u->isIncrementDecrementOp()) checkWrite(u->getSubExpr(), true);
    return true;
  }

  bool VisitCXXOperatorCallExpr(clang::CXXOperatorCallExpr* c) {
    const clang::OverloadedOperatorKind k = c->getOperator();
    const bool compound =
        k == clang::OO_PlusEqual || k == clang::OO_MinusEqual ||
        k == clang::OO_StarEqual || k == clang::OO_SlashEqual ||
        k == clang::OO_PercentEqual || k == clang::OO_CaretEqual ||
        k == clang::OO_AmpEqual || k == clang::OO_PipeEqual ||
        k == clang::OO_LessLessEqual || k == clang::OO_GreaterGreaterEqual ||
        k == clang::OO_PlusPlus || k == clang::OO_MinusMinus;
    if ((k == clang::OO_Equal || compound) && c->getNumArgs() >= 1) {
      checkWrite(c->getArg(0), compound);
    }
    return true;
  }

  bool VisitCXXMemberCallExpr(clang::CXXMemberCallExpr* c) {
    const clang::CXXMethodDecl* m = c->getMethodDecl();
    if (m == nullptr || m->getIdentifier() == nullptr) return true;
    const llvm::StringRef name = m->getName();
    static const char* kMutators[] = {"push_back", "emplace_back", "pop_back",
                                      "insert",    "emplace",      "erase",
                                      "clear",     "resize"};
    const bool mutating =
        std::any_of(std::begin(kMutators), std::end(kMutators),
                    [&](const char* s) { return name == s; });
    if (!mutating) return true;
    const clang::Expr* obj = c->getImplicitObjectArgument();
    if (obj != nullptr && baseIsShared(obj)) {
      ctx_.reportIfActive(
          sm_, c->getExprLoc(), "owner-computes",
          ("call to '" + name + "()' on a captured container inside a "
           "funnel lambda races across iterations; collect per-iteration "
           "results into owner-indexed slots instead")
              .str());
    }
    return true;
  }

 private:
  // Is the (stripped) base of a write target shared across iterations?
  // Captured locals from the enclosing function, members reached through
  // the captured `this`, and nested subscripts into either all count;
  // lambda-local scratch does not.
  bool baseIsShared(const clang::Expr* base) {
    const clang::Expr* e = base->IgnoreParenImpCasts();
    if (const auto* dre = dyn_cast<clang::DeclRefExpr>(e)) {
      const auto* vd = dyn_cast<clang::VarDecl>(dre->getDecl());
      return vd != nullptr && !locals_.contains(vd);
    }
    if (const auto* me = dyn_cast<clang::MemberExpr>(e)) {
      return baseIsShared(me->getBase());
    }
    if (isa<clang::CXXThisExpr>(e)) return true;
    if (const auto* as = dyn_cast<clang::ArraySubscriptExpr>(e)) {
      return baseIsShared(as->getBase());
    }
    if (const auto* oc = dyn_cast<clang::CXXOperatorCallExpr>(e)) {
      if (oc->getOperator() == clang::OO_Subscript && oc->getNumArgs() >= 1) {
        return baseIsShared(oc->getArg(0));
      }
    }
    return false;
  }

  void checkWrite(const clang::Expr* lhs, bool compound) {
    const clang::Expr* e = lhs->IgnoreParenImpCasts();
    const clang::Expr* base = nullptr;
    const clang::Expr* idx = nullptr;
    if (const auto* as = dyn_cast<clang::ArraySubscriptExpr>(e)) {
      base = as->getBase();
      idx = as->getIdx();
    } else if (const auto* oc = dyn_cast<clang::CXXOperatorCallExpr>(e)) {
      if (oc->getOperator() == clang::OO_Subscript && oc->getNumArgs() == 2) {
        base = oc->getArg(0);
        idx = oc->getArg(1);
      }
    }
    if (base == nullptr) {
      // Plain variable target. Read-modify-write on a captured scalar is
      // a cross-iteration race; plain stores of identical values are left
      // to TSan, so only compound updates are flagged.
      if (!compound) return;
      if (const auto* dre = dyn_cast<clang::DeclRefExpr>(e)) {
        const auto* vd = dyn_cast<clang::VarDecl>(dre->getDecl());
        if (vd != nullptr && !locals_.contains(vd) &&
            !vd->getType().isConstQualified()) {
          ctx_.reportIfActive(
              sm_, e->getExprLoc(), "owner-computes",
              "read-modify-write of captured variable '" +
                  vd->getNameAsString() +
                  "' inside a funnel lambda races across iterations; "
                  "accumulate with parallel_sum/parallel_max or into an "
                  "owner-indexed slot");
        }
      }
      return;
    }
    if (!baseIsShared(base)) return;
    IndexDependsScan scan(locals_);
    scan.TraverseStmt(const_cast<clang::Expr*>(idx));
    if (scan.depends()) return;
    ctx_.reportIfActive(
        sm_, e->getExprLoc(), "owner-computes",
        "write into a captured container at an index that does not depend "
        "on the iteration variable; every iteration targets the same slot "
        "(racy and schedule-dependent) -- index by the loop variable or "
        "use a lambda-local buffer");
  }

  TidyContext& ctx_;
  const clang::SourceManager& sm_;
  const LocalDeclCollector& locals_;
};

// --- untrusted-size taint machinery ----------------------------------------

/// Is this call one of the designated taint sanitizers: hicond::checked_size
/// or anything validation-shaped (validate(), revalidate_...)?
bool isSanitizerCall(const clang::CallExpr* c) {
  const clang::FunctionDecl* fd = c->getDirectCallee();
  if (fd == nullptr || fd->getIdentifier() == nullptr) return false;
  const std::string name = fd->getNameAsString();
  return name == "checked_size" ||
         lowered(name).find("validat") != std::string::npos;
}

/// Is this call a taint source -- an integer freshly decoded from untrusted
/// bytes? Snapshot Reader::u8/u16/u32/u64 member calls and the NDJSON
/// number_or() and integer_field() helpers qualify; JsonValue's raw
/// `.number` member is handled separately as a MemberExpr. integer_field()
/// range-checks against the bounds its caller passes, which are type
/// limits, not allocation caps, so its result stays tainted.
bool isSourceCall(const clang::CallExpr* c) {
  const clang::FunctionDecl* fd = c->getDirectCallee();
  if (fd == nullptr || fd->getIdentifier() == nullptr) return false;
  const llvm::StringRef n = fd->getName();
  if (n == "number_or" || n == "integer_field") return true;
  if (isa<clang::CXXMemberCallExpr>(c)) {
    return n == "u8" || n == "u16" || n == "u32" || n == "u64";
  }
  return false;
}

bool isSourceMember(const clang::MemberExpr* me) {
  const clang::ValueDecl* d = me->getMemberDecl();
  return d != nullptr && d->getIdentifier() != nullptr &&
         d->getName() == "number";
}

/// Collects the variables an expression reads and whether it contains a
/// taint source directly. Sanitizer calls are opaque: their result is clean
/// by definition, so the scan does not descend into them.
class ExprTaintScan : public clang::RecursiveASTVisitor<ExprTaintScan> {
 public:
  bool TraverseCallExpr(clang::CallExpr* c) {
    return traverseCall(c, [&] {
      return clang::RecursiveASTVisitor<ExprTaintScan>::TraverseCallExpr(c);
    });
  }
  bool TraverseCXXMemberCallExpr(clang::CXXMemberCallExpr* c) {
    return traverseCall(c, [&] {
      return clang::RecursiveASTVisitor<
          ExprTaintScan>::TraverseCXXMemberCallExpr(c);
    });
  }
  bool VisitMemberExpr(clang::MemberExpr* me) {
    if (isSourceMember(me)) has_source = true;
    return true;
  }
  bool VisitDeclRefExpr(clang::DeclRefExpr* dre) {
    if (const auto* vd = dyn_cast<clang::VarDecl>(dre->getDecl())) {
      vars.push_back(vd->getCanonicalDecl());
    }
    return true;
  }

  std::vector<const clang::VarDecl*> vars;
  bool has_source = false;

 private:
  template <typename Recurse>
  bool traverseCall(clang::CallExpr* c, Recurse recurse) {
    if (isSanitizerCall(c)) return true;  // result is clean; args untouched
    if (isSourceCall(c)) {
      has_source = true;
      return true;
    }
    return recurse();
  }
};

/// Function-local taint simulation for the untrusted-size check.
///
/// One pass over a function body collects Assign / Sanitize / Sink events
/// keyed by their physical file offset; replaying them in source order
/// approximates straight-line dataflow. Sources: snapshot Reader u8..u64,
/// JsonValue .number, number_or(). Sanitizers: mentioning a variable inside
/// a HICOND_CHECK-family invocation, or passing it to checked_size()/any
/// validate-shaped call. Sinks: resize/reserve arguments, new T[n] sizes,
/// subscript indices -- unless the sink itself sits inside a validation
/// macro (the check *is* the validation there). Source order is an
/// approximation (it ignores branches and loop back-edges), which is the
/// right trade for a lint: re-sanitize inside the loop if it fires.
class TaintScan : public clang::RecursiveASTVisitor<TaintScan> {
 public:
  TaintScan(TidyContext& ctx, const clang::SourceManager& sm,
            const MacroUseLog& macros)
      : ctx_(ctx), sm_(sm), macros_(macros) {}

  void run(const clang::FunctionDecl* fd) {
    events_.clear();
    fid_ = clang::FileID();
    TraverseStmt(fd->getBody());
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event& a, const Event& b) {
                       return a.offset < b.offset;
                     });
    llvm::DenseSet<const clang::VarDecl*> tainted;
    for (const Event& ev : events_) {
      switch (ev.kind) {
        case Event::assign: {
          const bool rhs_tainted =
              ev.has_source ||
              std::any_of(ev.vars.begin(), ev.vars.end(),
                          [&](const clang::VarDecl* v) {
                            return tainted.count(v) != 0;
                          });
          if (rhs_tainted) {
            tainted.insert(ev.var);
          } else if (!ev.compound) {
            tainted.erase(ev.var);
          }
          break;
        }
        case Event::sanitize:
          tainted.erase(ev.var);
          break;
        case Event::sink: {
          const clang::VarDecl* hit = nullptr;
          for (const clang::VarDecl* v : ev.vars) {
            if (tainted.count(v) != 0) {
              hit = v;
              break;
            }
          }
          if (ev.has_source || hit != nullptr) {
            ctx_.reportIfActive(
                sm_, ev.loc, "untrusted-size",
                "untrusted " + ev.what +
                    (hit != nullptr ? " ('" + hit->getNameAsString() + "')"
                                    : "") +
                    " decoded from wire/snapshot input reaches " + ev.use +
                    " without a cap; route it through hicond::checked_size()"
                    ", a validate() call, or a HICOND_CHECK range test "
                    "first");
          }
          break;
        }
      }
    }
  }

  bool VisitVarDecl(clang::VarDecl* v) {
    const clang::Expr* init = v->getInit();
    if (init == nullptr) return true;
    unsigned offset = 0;
    if (!fileOffset(v->getLocation(), offset)) return true;
    addAssign(v->getCanonicalDecl(), init, /*compound=*/false, offset);
    return true;
  }

  bool VisitBinaryOperator(clang::BinaryOperator* b) {
    if (!b->isAssignmentOp()) return true;
    const auto* dre =
        dyn_cast<clang::DeclRefExpr>(b->getLHS()->IgnoreParenImpCasts());
    if (dre == nullptr) return true;
    const auto* vd = dyn_cast<clang::VarDecl>(dre->getDecl());
    if (vd == nullptr) return true;
    unsigned offset = 0;
    if (!fileOffset(b->getOperatorLoc(), offset)) return true;
    addAssign(vd->getCanonicalDecl(), b->getRHS(),
              b->isCompoundAssignmentOp(), offset);
    return true;
  }

  bool VisitDeclRefExpr(clang::DeclRefExpr* dre) {
    // A variable mentioned inside a HICOND_CHECK-family invocation has, by
    // project convention, just been range-tested: sanitize it from there on.
    const auto* vd = dyn_cast<clang::VarDecl>(dre->getDecl());
    if (vd == nullptr) return true;
    unsigned offset = 0;
    clang::FileID fid;
    if (!fileLoc(dre->getLocation(), fid, offset)) return true;
    if (macros_.containsOffset(fid, offset)) {
      events_.push_back(Event::sanitizeAt(vd->getCanonicalDecl(), offset));
    }
    return true;
  }

  bool VisitCallExpr(clang::CallExpr* c) {
    if (!isSanitizerCall(c)) return true;
    unsigned offset = 0;
    if (!fileOffset(c->getExprLoc(), offset)) return true;
    for (const clang::Expr* arg : c->arguments()) {
      ExprTaintScan scan;
      scan.TraverseStmt(const_cast<clang::Expr*>(arg));
      for (const clang::VarDecl* v : scan.vars) {
        events_.push_back(Event::sanitizeAt(v, offset));
      }
    }
    return true;
  }

  bool VisitCXXMemberCallExpr(clang::CXXMemberCallExpr* c) {
    const clang::CXXMethodDecl* m = c->getMethodDecl();
    if (m == nullptr || m->getIdentifier() == nullptr) return true;
    const llvm::StringRef name = m->getName();
    if ((name == "resize" || name == "reserve") && c->getNumArgs() >= 1) {
      addSink(c->getArg(0), "size", "'" + name.str() + "()'");
    }
    return true;
  }

  bool VisitCXXNewExpr(clang::CXXNewExpr* e) {
    if (e->isArray()) {
      if (const auto size = e->getArraySize()) {
        if (*size != nullptr) {
          addSink(*size, "size", "an array-new allocation");
        }
      }
    }
    return true;
  }

  bool VisitArraySubscriptExpr(clang::ArraySubscriptExpr* e) {
    addSink(e->getIdx(), "index", "a subscript");
    return true;
  }

  bool VisitCXXOperatorCallExpr(clang::CXXOperatorCallExpr* c) {
    if (c->getOperator() == clang::OO_Subscript && c->getNumArgs() == 2) {
      addSink(c->getArg(1), "index", "a subscript");
    }
    return true;
  }

 private:
  struct Event {
    enum Kind { assign, sanitize, sink };
    Kind kind = assign;
    unsigned offset = 0;
    const clang::VarDecl* var = nullptr;        // assign lhs / sanitize target
    std::vector<const clang::VarDecl*> vars;    // assign rhs / sink reads
    bool has_source = false;
    bool compound = false;
    clang::SourceLocation loc;
    std::string what;  // sink only: "size" / "index"
    std::string use;   // sink only: what it reaches

    static Event sanitizeAt(const clang::VarDecl* v, unsigned offset) {
      Event ev;
      ev.kind = sanitize;
      ev.offset = offset;
      ev.var = v;
      return ev;
    }
  };

  bool fileLoc(clang::SourceLocation loc, clang::FileID& fid,
               unsigned& offset) const {
    const clang::SourceLocation file_loc = sm_.getFileLoc(loc);
    if (file_loc.isInvalid()) return false;
    const auto dec = sm_.getDecomposedLoc(file_loc);
    fid = dec.first;
    offset = dec.second;
    return true;
  }

  /// Offset within the function's own file; events from other files
  /// (macro bodies in headers) are dropped rather than mis-ordered.
  bool fileOffset(clang::SourceLocation loc, unsigned& offset) {
    clang::FileID fid;
    if (!fileLoc(loc, fid, offset)) return false;
    if (fid_.isInvalid()) fid_ = fid;
    return fid == fid_;
  }

  void addAssign(const clang::VarDecl* lhs, const clang::Expr* rhs,
                 bool compound, unsigned offset) {
    ExprTaintScan scan;
    scan.TraverseStmt(const_cast<clang::Expr*>(rhs));
    Event ev;
    ev.kind = Event::assign;
    ev.offset = offset;
    ev.var = lhs;
    ev.vars = std::move(scan.vars);
    ev.has_source = scan.has_source;
    ev.compound = compound;
    events_.push_back(std::move(ev));
  }

  void addSink(const clang::Expr* arg, const char* what,
               const std::string& use) {
    unsigned offset = 0;
    clang::FileID fid;
    if (!fileLoc(arg->getExprLoc(), fid, offset)) return;
    if (fid_.isValid() && fid != fid_) return;
    if (macros_.containsOffset(fid, offset)) {
      return;  // HICOND_CHECK(!seen[tag], ...) -- the check is the guard
    }
    ExprTaintScan scan;
    scan.TraverseStmt(const_cast<clang::Expr*>(arg));
    Event ev;
    ev.kind = Event::sink;
    ev.offset = offset;
    ev.vars = std::move(scan.vars);
    ev.has_source = scan.has_source;
    ev.loc = arg->getExprLoc();
    ev.what = what;
    ev.use = use;
    events_.push_back(std::move(ev));
  }

  TidyContext& ctx_;
  const clang::SourceManager& sm_;
  const MacroUseLog& macros_;
  clang::FileID fid_;
  std::vector<Event> events_;
};

/// Collects direct callees (calls and constructions) of a function body
/// for the boundary-validation reachability pass.
class CalleeCollector : public clang::RecursiveASTVisitor<CalleeCollector> {
 public:
  bool VisitCallExpr(clang::CallExpr* c) {
    if (const clang::FunctionDecl* fd = c->getDirectCallee()) {
      callees.push_back(fd);
    }
    return true;
  }
  bool VisitCXXConstructExpr(clang::CXXConstructExpr* c) {
    if (const clang::CXXConstructorDecl* ctor = c->getConstructor()) {
      callees.push_back(ctor);
    }
    return true;
  }
  std::vector<const clang::FunctionDecl*> callees;
};

class TidyVisitor : public clang::RecursiveASTVisitor<TidyVisitor> {
 public:
  TidyVisitor(TidyContext& ctx, clang::ASTContext& ast,
              const MacroUseLog& macros)
      : ctx_(ctx), ast_(ast), sm_(ast.getSourceManager()), macros_(macros) {}

  bool shouldVisitTemplateInstantiations() const { return false; }
  bool shouldWalkTypesOfTypeLocs() const { return false; }

  // --- float-compare -------------------------------------------------------
  bool VisitBinaryOperator(clang::BinaryOperator* b) {
    if (b->getOpcode() != clang::BO_EQ && b->getOpcode() != clang::BO_NE) {
      return true;
    }
    const clang::Expr* l = b->getLHS();
    const clang::Expr* r = b->getRHS();
    if (l->getType().isNull() || r->getType().isNull()) return true;
    if (!l->getType()->isRealFloatingType() &&
        !r->getType()->isRealFloatingType()) {
      return true;
    }
    ctx_.reportIfActive(
        sm_, b->getOperatorLoc(), "float-compare",
        b->getOpcode() == clang::BO_EQ
            ? "'==' on floating-point values; use exactly_equal()/"
              "approx_equal() from util/float_eq.hpp (or annotate the line "
              "with 'float-eq: exact' when bitwise equality is intended)"
            : "'!=' on floating-point values; use !exactly_equal()/"
              "!approx_equal() from util/float_eq.hpp (or annotate the line "
              "with 'float-eq: exact' when bitwise equality is intended)");
    return true;
  }

  // --- ordered-iteration ---------------------------------------------------
  bool VisitCXXForRangeStmt(clang::CXXForRangeStmt* s) {
    const clang::Expr* range = s->getRangeInit();
    if (range == nullptr || range->getType().isNull()) return true;
    const clang::CXXRecordDecl* rd =
        range->getType().getNonReferenceType()->getAsCXXRecordDecl();
    if (rd == nullptr) return true;
    const std::string qn = rd->getQualifiedNameAsString();
    if (qn != "std::unordered_map" && qn != "std::unordered_set" &&
        qn != "std::unordered_multimap" && qn != "std::unordered_multiset") {
      return true;
    }
    if (!stmtHasSideEffects(s->getBody(), ast_)) return true;
    ctx_.reportIfActive(
        sm_, s->getForLoc(), "ordered-iteration",
        "range-for over " + qn +
            " with a side-effecting body visits elements in hash order, "
            "which varies across standard libraries and run conditions; "
            "iterate a sorted key list, or annotate with "
            "'hicond-tidy: allow(ordered-iteration)' if every element is "
            "processed order-independently");
    return true;
  }

  // --- owner-computes ------------------------------------------------------
  bool VisitCallExpr(clang::CallExpr* c) {
    const clang::FunctionDecl* fd = c->getDirectCallee();
    if (fd == nullptr) return true;
    const std::string qn = fd->getQualifiedNameAsString();
    if (qn == "hicond::parallel_for" ||
        qn == "hicond::parallel_for_interleaved" ||
        qn == "hicond::parallel_region" || qn == "hicond::parallel_sum" ||
        qn == "hicond::parallel_sums" || qn == "hicond::for_each_row" ||
        qn == "hicond::parallel_max" || qn == "hicond::parallel_any") {
      checkFunnelLambda(c);
    }
    return true;
  }

  // --- boundary-validation: collect bodies ---------------------------------
  bool VisitFunctionDecl(clang::FunctionDecl* f) {
    if (f->doesThisDeclarationHaveABody() && f->getBody() != nullptr) {
      bodies_.push_back(f);
    }
    return true;
  }

  void finalize() {
    finalizeBoundaryValidation();
    runTaintScans();
  }

 private:
  /// Run the untrusted-size event simulation over every function body in
  /// scope for the check. Lambda call operators are covered through their
  /// enclosing function's body, so the scan treats enclosing function +
  /// lambdas as one local scope.
  void runTaintScans() {
    for (const clang::FunctionDecl* fd : bodies_) {
      if (const auto* m = dyn_cast<clang::CXXMethodDecl>(fd)) {
        if (m->getParent()->isLambda()) continue;
      }
      if (!ctx_.checkEnabledAt(sm_, fd->getLocation(), "untrusted-size")) {
        continue;
      }
      TaintScan scan(ctx_, sm_, macros_);
      scan.run(fd);
    }
  }

  void checkFunnelLambda(const clang::CallExpr* call) {
    if (call->getNumArgs() == 0) return;
    const clang::Expr* arg =
        call->getArg(call->getNumArgs() - 1)->IgnoreImplicit();
    arg = arg->IgnoreParens();
    const auto* lam = dyn_cast<clang::LambdaExpr>(arg);
    if (lam == nullptr) return;
    const clang::CXXMethodDecl* op = lam->getCallOperator();
    if (op == nullptr || !op->hasBody()) return;
    LocalDeclCollector locals;
    locals.TraverseStmt(op->getBody());
    for (const clang::ParmVarDecl* p : op->parameters()) locals.add(p);
    OwnerComputesScan scan(ctx_, sm_, locals);
    scan.TraverseStmt(op->getBody());
  }

  bool isBoundaryCandidate(const clang::FunctionDecl* fd) const {
    if (fd->isImplicit() || fd->isDeleted() || fd->isDefaulted()) return false;
    if (fd->isConstexpr() || fd->isOverloadedOperator()) return false;
    if (fd->getDescribedFunctionTemplate() != nullptr) return false;
    if (isa<clang::CXXConstructorDecl>(fd) ||
        isa<clang::CXXDestructorDecl>(fd) ||
        isa<clang::CXXDeductionGuideDecl>(fd)) {
      return false;
    }
    if (const auto* m = dyn_cast<clang::CXXMethodDecl>(fd)) {
      if (m->getParent()->isLambda()) return false;
    }
    if (!fd->isExternallyVisible()) return false;
    const std::string qn = fd->getQualifiedNameAsString();
    if (qn.find("::detail") != std::string::npos ||
        qn.find("(anonymous") != std::string::npos || qn == "main") {
      return false;
    }
    bool hasCoreParam = false;
    for (const clang::ParmVarDecl* p : fd->parameters()) {
      clang::QualType t = p->getType().getNonReferenceType();
      if (t->isPointerType()) t = t->getPointeeType();
      const clang::CXXRecordDecl* rd =
          t.getUnqualifiedType()->getAsCXXRecordDecl();
      if (rd == nullptr) continue;
      const std::string rqn = rd->getQualifiedNameAsString();
      if (rqn == "hicond::Graph" || rqn == "hicond::CsrMatrix" ||
          rqn == "hicond::Decomposition" || rqn == "hicond::RootedForest") {
        hasCoreParam = true;
        break;
      }
    }
    if (!hasCoreParam) return false;
    const clang::FunctionDecl* canon = fd->getCanonicalDecl();
    if (ctx_.options().fixture_mode) {
      return ctx_.checkEnabledAt(sm_, canon->getLocation(),
                                 "boundary-validation");
    }
    // Only functions whose first declaration sits in a public (non-infra)
    // header are API boundaries.
    const std::string rel = ctx_.relativePath(sm_, canon->getLocation());
    const llvm::StringRef r(rel);
    const auto hasPrefix = [&](llvm::StringRef p) {
      return r.size() >= p.size() && r.substr(0, p.size()) == p;
    };
    if (!hasPrefix("src/hicond/")) return false;
    if (hasPrefix("src/hicond/util/") || hasPrefix("src/hicond/obs/")) {
      return false;
    }
    const std::size_t dot = rel.rfind('.');
    const std::string ext = dot == std::string::npos ? "" : rel.substr(dot);
    return ext == ".hpp" || ext == ".h";
  }

  void finalizeBoundaryValidation() {
    struct Info {
      const clang::FunctionDecl* fd = nullptr;
      bool validated = false;
      std::vector<unsigned> callees;  // indices into infos
    };
    llvm::DenseMap<const clang::FunctionDecl*, unsigned> index;
    std::vector<Info> infos;
    infos.reserve(bodies_.size());
    for (const clang::FunctionDecl* fd : bodies_) {
      index[fd->getCanonicalDecl()] = static_cast<unsigned>(infos.size());
      infos.push_back({fd, false, {}});
    }
    for (Info& info : infos) {
      const clang::Stmt* body = info.fd->getBody();
      const auto b = sm_.getDecomposedExpansionLoc(body->getBeginLoc());
      const auto e = sm_.getDecomposedExpansionLoc(body->getEndLoc());
      if (b.first == e.first && macros_.anyInRange(b.first, b.second, e.second)) {
        info.validated = true;
        continue;
      }
      CalleeCollector cc;
      cc.TraverseStmt(const_cast<clang::Stmt*>(body));
      for (const clang::FunctionDecl* callee : cc.callees) {
        // A call into anything validation-shaped counts, including
        // validators defined in other translation units.
        if (lowered(callee->getNameAsString()).find("validat") !=
            std::string::npos) {
          info.validated = true;
          break;
        }
        const auto it = index.find(callee->getCanonicalDecl());
        if (it != index.end()) info.callees.push_back(it->second);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (Info& info : infos) {
        if (info.validated) continue;
        for (const unsigned c : info.callees) {
          if (infos[c].validated) {
            info.validated = true;
            changed = true;
            break;
          }
        }
      }
    }
    for (const Info& info : infos) {
      if (info.validated || !isBoundaryCandidate(info.fd)) continue;
      ctx_.reportIfActive(
          sm_, info.fd->getLocation(), "boundary-validation",
          "exported function '" + info.fd->getQualifiedNameAsString() +
              "' takes a core structure but never reaches "
              "HICOND_VALIDATE/HICOND_CHECK (directly or via callees in "
              "this TU); validate inputs at the API boundary or annotate "
              "with 'hicond-tidy: allow(boundary-validation)'");
    }
  }

  TidyContext& ctx_;
  clang::ASTContext& ast_;
  const clang::SourceManager& sm_;
  const MacroUseLog& macros_;
  std::vector<const clang::FunctionDecl*> bodies_;
};

class TidyPPCallbacks : public clang::PPCallbacks {
 public:
  TidyPPCallbacks(clang::SourceManager& sm, std::shared_ptr<MacroUseLog> log)
      : sm_(sm), log_(std::move(log)) {}

  void MacroExpands(const clang::Token& name_tok,
                    const clang::MacroDefinition& /*md*/,
                    clang::SourceRange range,
                    const clang::MacroArgs* /*args*/) override {
    const clang::IdentifierInfo* id = name_tok.getIdentifierInfo();
    if (id == nullptr) return;
    const llvm::StringRef n = id->getName();
    if (n != "HICOND_CHECK" && n != "HICOND_VALIDATE" &&
        n != "HICOND_RUN_VALIDATION" && n != "HICOND_ASSERT" &&
        n != "HICOND_ASSERT_EXPENSIVE") {
      return;
    }
    const auto dec = sm_.getDecomposedExpansionLoc(range.getBegin());
    log_->add(dec.first, dec.second);
    const auto end = sm_.getDecomposedExpansionLoc(range.getEnd());
    if (end.first == dec.first && end.second >= dec.second) {
      log_->addRange(dec.first, dec.second, end.second);
    }
  }

 private:
  clang::SourceManager& sm_;
  std::shared_ptr<MacroUseLog> log_;
};

}  // namespace

void MacroUseLog::add(clang::FileID fid, unsigned offset) {
  uses_[fid].push_back(offset);
}

bool MacroUseLog::anyInRange(clang::FileID fid, unsigned begin,
                             unsigned end) const {
  const auto it = uses_.find(fid);
  if (it == uses_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](unsigned off) { return off >= begin && off <= end; });
}

void MacroUseLog::addRange(clang::FileID fid, unsigned begin, unsigned end) {
  ranges_[fid].emplace_back(begin, end);
}

bool MacroUseLog::containsOffset(clang::FileID fid, unsigned offset) const {
  const auto it = ranges_.find(fid);
  if (it == ranges_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](const std::pair<unsigned, unsigned>& r) {
                       return offset >= r.first && offset <= r.second;
                     });
}

std::unique_ptr<clang::PPCallbacks> makePPCallbacks(
    clang::SourceManager& sm, std::shared_ptr<MacroUseLog> log) {
  return std::make_unique<TidyPPCallbacks>(sm, std::move(log));
}

void runChecks(TidyContext& ctx, clang::ASTContext& ast,
               const MacroUseLog& macros) {
  TidyVisitor visitor(ctx, ast, macros);
  visitor.TraverseDecl(ast.getTranslationUnitDecl());
  visitor.finalize();
}

}  // namespace hicond_tidy
